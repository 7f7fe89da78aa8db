package persist

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the decoder and pins the codec's
// safety contract:
//
//   - Decode never panics;
//   - every failure is typed (wraps ErrCorrupt or ErrVersion);
//   - every success yields a structurally valid artifact whose re-encoding
//     is a fixpoint: Encode(Decode(b)) decodes again to the same bytes.
//
// The committed seed corpus under testdata/fuzz/FuzzDecode covers the edge
// cases (empty, single-supernode, max-weight, dense self-loops,
// weighted/unweighted) and four seed-*-subgraph files of the retired kind
// 2, which must now fail as ErrCorrupt; f.Add mirrors a subset so the
// target is useful even with a stripped corpus. CI runs a -fuzztime 10s
// smoke pass on every push.
func FuzzDecode(f *testing.F) {
	summaries := caseSummaries(f)
	for _, name := range slices.Sorted(maps.Keys(summaries)) {
		enc, err := EncodeBytes(Artifact{Summary: summaries[name]})
		if err != nil {
			f.Fatalf("seed %s: %v", name, err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte("PGAR"))
	f.Add([]byte("PGAR\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if a.Summary == nil {
			t.Fatal("decoded artifact holds no summary")
		}
		if err := a.Summary.Validate(); err != nil {
			t.Fatalf("decoded summary violates invariants: %v", err)
		}
		re, err := EncodeBytes(a)
		if err != nil {
			t.Fatalf("re-encoding a decoded artifact failed: %v", err)
		}
		b, err := Decode(re)
		if err != nil {
			t.Fatalf("decoding a re-encoded artifact failed: %v", err)
		}
		re2, err := EncodeBytes(b)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("re-encoding is not a fixpoint")
		}
	})
}
