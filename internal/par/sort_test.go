package par

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

func TestSortUint64MatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{0, 1, 1000, 1 << 16, 1<<17 + 991} {
		a := make([]uint64, size)
		for i := range a {
			a[i] = rng.Uint64() % 512 // dense duplicates
		}
		b := slices.Clone(a)
		want := slices.Clone(a)
		slices.Sort(want)
		for _, w := range []int{1, 2, 3, 8} {
			copy(b, a)
			SortUint64(b, w)
			if !slices.Equal(b, want) {
				t.Fatalf("size %d workers %d: parallel sort differs from slices.Sort", size, w)
			}
		}
	}
}

// TestKeySorterMatchesStableReference: the radix sorter must produce the
// stable permutation (equal keys keep input order), including when one
// sorter is reused across differently-sized inputs.
func TestKeySorterMatchesStableReference(t *testing.T) {
	type kv struct {
		k uint64
		v uint32
	}
	rng := rand.New(rand.NewSource(23))
	var s KeySorter // reused across sizes: scratch growth must not corrupt
	for _, size := range []int{0, 1, 2, 500, 70000, 1<<17 + 41} {
		ref := make([]kv, size)
		for i := range ref {
			// Mixed regimes: dense duplicates in half the keys, full-width
			// hashes in the rest (exercises both skip and scatter passes).
			if i%2 == 0 {
				ref[i] = kv{k: rng.Uint64() % 97, v: uint32(i)}
			} else {
				ref[i] = kv{k: rng.Uint64(), v: uint32(i)}
			}
		}
		// Each payload is its input position, so ordering by (key, payload)
		// is the stable order by key.
		want := slices.Clone(ref)
		slices.SortFunc(want, func(a, b kv) int {
			return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.v, b.v))
		})
		keys := make([]uint64, size)
		vals := make([]uint32, size)
		for i, e := range ref {
			keys[i], vals[i] = e.k, e.v
		}
		s.Sort(keys, vals)
		for i := range want {
			if keys[i] != want[i].k || vals[i] != want[i].v {
				t.Fatalf("size %d: mismatch at %d: (%d,%d) want (%d,%d)",
					size, i, keys[i], vals[i], want[i].k, want[i].v)
			}
		}
	}
}

func TestKeySorterLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on key/value length mismatch")
		}
	}()
	var s KeySorter
	s.Sort(make([]uint64, 3), make([]uint32, 2))
}
