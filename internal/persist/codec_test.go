package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pegasus/internal/bitio"
	"pegasus/internal/graph"
	"pegasus/internal/summary"
)

// randomSummary draws a canonical summary over n nodes with up to maxS
// supernodes and nEdges random superedges. weighted draws random positive
// weights (which may or may not include non-unit ones — the flag is derived
// from the data, and both outcomes are worth round-tripping).
func randomSummary(rng *rand.Rand, n, maxS, nEdges int, weighted bool) *summary.Summary {
	// Each node joins an open supernode or opens the next one, so the IDs
	// follow first occurrence.
	superOf := make([]uint32, n)
	ns := 0
	for u := range superOf {
		a := rng.Intn(min(ns+1, maxS))
		ns = max(ns, a+1)
		superOf[u] = uint32(a)
	}
	// wt[a][b], a ≤ b, is the weight of superedge {a,b}, 0 when absent; a
	// redrawn superedge keeps its last weight.
	wt := make([][]float64, ns)
	for a := range wt {
		wt[a] = make([]float64, ns)
	}
	for i := 0; i < nEdges; i++ {
		a := superOf[rng.Intn(n)]
		b := superOf[rng.Intn(n)]
		if a > b {
			a, b = b, a
		}
		w := 1.0
		if weighted {
			switch rng.Intn(4) {
			case 0:
				w = 1 // unit weights interleaved with non-unit ones
			case 1:
				w = float64(1+rng.Intn(1000)) / 7.0
			case 2:
				w = rng.Float64() + 1e-9
			default:
				w = math.MaxFloat64 * rng.Float64()
				if w == 0 {
					w = 1
				}
			}
		}
		wt[a][b] = w
	}
	upper := make([][]uint32, ns)
	weights := make([][]float64, ns)
	for a := range wt {
		for b := a; b < ns; b++ {
			if wt[a][b] > 0 {
				upper[a] = append(upper[a], uint32(b))
				weights[a] = append(weights[a], wt[a][b])
			}
		}
	}
	return summary.New(superOf, upper, weights)
}

// caseSummaries enumerates the codec's edge cases plus randomized instances:
// empty, single-supernode, max-weight, dense self-loops, weighted and
// unweighted.
func caseSummaries(t testing.TB) map[string]*summary.Summary {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	cases := map[string]*summary.Summary{}

	// Empty: zero nodes, zero supernodes, zero superedges.
	cases["empty"] = summary.New(nil, nil, nil)

	// Single supernode holding every node, with a max-weight self-loop.
	cases["single-supernode-max-weight"] = summary.New(make([]uint32, 9), [][]uint32{{0}}, [][]float64{{math.MaxFloat64}})

	// Single supernode, no superedges at all.
	cases["single-supernode-no-edges"] = summary.New(make([]uint32, 5), make([][]uint32, 1), nil)

	// Dense self-loops: every supernode a of six has a self-loop of weight
	// a+0.5 plus a ring of superedges of weight 2.
	superOf := make([]uint32, 24)
	for u := range superOf {
		superOf[u] = uint32(u % 6)
	}
	cases["dense-self-loops"] = summary.New(superOf,
		[][]uint32{{0, 1, 5}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5}},
		[][]float64{{0.5, 2, 2}, {1.5, 2}, {2.5, 2}, {3.5, 2}, {4.5, 2}, {5.5}})

	// Identity summary of a generated graph: unweighted, many supernodes.
	gb := graph.NewBuilder(30)
	for u := 0; u < 30; u++ {
		gb.AddEdge(uint32(u), uint32((u+1)%30))
		gb.AddEdge(uint32(u), uint32((u*7+3)%30))
	}
	cases["identity"] = summary.Identity(gb.Build())

	for i := 0; i < 8; i++ {
		cases[fmt.Sprintf("random-unweighted-%d", i)] = randomSummary(rng, 20+i*13, 3+i, 2+i*5, false)
		cases[fmt.Sprintf("random-weighted-%d", i)] = randomSummary(rng, 20+i*13, 3+i, 2+i*5, true)
	}
	return cases
}

// TestSummaryRoundTrip pins the codec's central property on summaries:
// Encode(Decode(x)) == x byte-for-byte, the decoded summary is structurally
// valid, and it answers every accessor exactly as the original does.
func TestSummaryRoundTrip(t *testing.T) {
	cases := caseSummaries(t)
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		s := cases[name]
		t.Run(name, func(t *testing.T) {
			enc, err := EncodeBytes(Artifact{Summary: s})
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			a, err := Decode(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if a.Summary == nil {
				t.Fatalf("decoded artifact holds no summary: %+v", a)
			}
			if err := a.Summary.Validate(); err != nil {
				t.Fatalf("decoded summary invalid: %v", err)
			}
			re, err := EncodeBytes(a)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(enc, re) {
				t.Fatalf("Encode(Decode(x)) != x: %d vs %d bytes", len(re), len(enc))
			}
			got := a.Summary
			if !slices.Equal(got.SupernodeOf(), s.SupernodeOf()) {
				t.Fatal("decoded SupernodeOf differs from the original's")
			}
			if got.NumSuperedges() != s.NumSuperedges() || got.Weighted() != s.Weighted() || got.MaxWeight() != s.MaxWeight() {
				t.Fatalf("decoded |P|=%d weighted=%v max=%v, want %d %v %v", got.NumSuperedges(), got.Weighted(),
					got.MaxWeight(), s.NumSuperedges(), s.Weighted(), s.MaxWeight())
			}
			for x := range uint32(s.NumSupernodes()) {
				if !slices.Equal(got.Members(x), s.Members(x)) {
					t.Fatalf("decoded Members(%d) = %v, want %v", x, got.Members(x), s.Members(x))
				}
				gn, gw := got.SuperNeighbors(x)
				sn, sw := s.SuperNeighbors(x)
				if !slices.Equal(gn, sn) || !slices.Equal(gw, sw) {
					t.Fatalf("decoded SuperNeighbors(%d) = %v %v, want %v %v", x, gn, gw, sn, sw)
				}
			}
		})
	}
}

// TestEncodeRejectsAmbiguousArtifact: an artifact must hold a summary.
func TestEncodeRejectsAmbiguousArtifact(t *testing.T) {
	if _, err := EncodeBytes(Artifact{}); err == nil {
		t.Error("encoding an empty artifact succeeded")
	}
}

// fixCRC recomputes the trailer over everything before it, so tests can
// craft payload mutations that only the structural checks (not the
// checksum) must catch.
func fixCRC(data []byte) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(out)-trailerLen:], crc32.ChecksumIEEE(out[:len(out)-trailerLen]))
	return out
}

// referenceEncoding returns one representative valid artifact encoding.
func referenceEncoding(t testing.TB) []byte {
	t.Helper()
	s := summary.New([]uint32{0, 0, 1, 1, 2}, [][]uint32{{1}, {2}, {2}}, [][]float64{{1}, {2.5}, {0.25}})
	enc, err := EncodeBytes(Artifact{Summary: s})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// mustCorrupt asserts that decoding fails with a typed ErrCorrupt (never a
// panic, never success, never an untyped error).
func mustCorrupt(t *testing.T, data []byte, what string) {
	t.Helper()
	_, err := Decode(data)
	if err == nil {
		t.Fatalf("%s: decode succeeded", what)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: error %v does not wrap ErrCorrupt", what, err)
	}
}

// TestDecodeZeroLength: an empty file is ErrCorrupt.
func TestDecodeZeroLength(t *testing.T) {
	mustCorrupt(t, nil, "nil input")
	mustCorrupt(t, []byte{}, "zero-length input")
}

// TestDecodeTruncated: every proper prefix of a valid encoding fails typed.
func TestDecodeTruncated(t *testing.T) {
	enc := referenceEncoding(t)
	for k := 0; k < len(enc); k++ {
		mustCorrupt(t, enc[:k], fmt.Sprintf("truncation to %d/%d bytes", k, len(enc)))
	}
}

// TestDecodeFlippedByte: flipping any single byte anywhere in the file —
// header, payload, or trailer — fails typed. The CRC covers the body and the
// trailer is compared against it, so no single flip can slip through.
func TestDecodeFlippedByte(t *testing.T) {
	enc := referenceEncoding(t)
	for i := range enc {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), enc...)
			mut[i] ^= flip
			mustCorrupt(t, mut, fmt.Sprintf("byte %d flipped with %#x", i, flip))
		}
	}
}

// TestDecodeWrongMagic: a wrong magic is ErrCorrupt even with a valid CRC.
func TestDecodeWrongMagic(t *testing.T) {
	enc := referenceEncoding(t)
	mut := append([]byte(nil), enc...)
	copy(mut, "NOPE")
	mustCorrupt(t, fixCRC(mut), "wrong magic with fixed CRC")
}

// TestDecodeFutureVersion: a structurally intact file from a future codec
// version is ErrVersion — distinguishable from corruption, equally
// recoverable (rebuild).
func TestDecodeFutureVersion(t *testing.T) {
	enc := referenceEncoding(t)
	for _, v := range []byte{0, 2, 77, 255} {
		mut := append([]byte(nil), enc...)
		mut[4] = v
		_, err := Decode(fixCRC(mut))
		if err == nil {
			t.Fatalf("version %d decoded", v)
		}
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("version %d: error %v does not wrap ErrVersion", v, err)
		}
		if errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d: error %v wraps ErrCorrupt too — the two must stay distinct", v, err)
		}
	}
}

// TestDecodeUnknownKind: an unknown artifact kind is ErrCorrupt, and so is
// kind 2, which once held subgraph artifacts.
func TestDecodeUnknownKind(t *testing.T) {
	enc := referenceEncoding(t)
	for _, kind := range []byte{2, 9} {
		mut := append([]byte(nil), enc...)
		mut[5] = kind
		mustCorrupt(t, fixCRC(mut), fmt.Sprintf("kind %d with fixed CRC", kind))
	}
}

// TestDecodeTrailingGarbage: extra bytes between payload and trailer are
// rejected even when the CRC is recomputed over them — canonical encodings
// consume the payload exactly.
func TestDecodeTrailingGarbage(t *testing.T) {
	enc := referenceEncoding(t)
	mut := append([]byte(nil), enc[:len(enc)-trailerLen]...)
	mut = append(mut, 0xAB, 0, 0, 0, 0)
	mustCorrupt(t, fixCRC(mut), "trailing garbage with fixed CRC")
}

// TestDecodeHugeCounts: headers claiming absurd node counts are rejected
// before any proportional allocation happens (each node costs at least one
// payload byte, so the count can never exceed the payload length).
func TestDecodeHugeCounts(t *testing.T) {
	data := []byte{'P', 'G', 'A', 'R', codecVersion, kindSummary,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, // huge varint |V|
		0, 0, 0, 0, 0, 0} // filler + CRC space
	mustCorrupt(t, fixCRC(data), "huge node count")
}

// summaryArtifact assembles a summary artifact from raw payload fields —
// |V|, |S|, flags, member lists, upper-triangle superedge lists and weights
// — under an intact header and checksum, so that only decodeSummary's shape
// checks can reject it.
func summaryArtifact(t *testing.T, n, ns, flags uint64, members, upper [][]uint32, weights []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(artifactMagic[:])
	buf.WriteByte(codecVersion)
	buf.WriteByte(kindSummary)
	w := bitio.NewWriter(&buf)
	w.PutUvarint(n)
	w.PutUvarint(ns)
	w.PutUvarint(flags)
	for _, ms := range members {
		w.PutDeltas(ms)
	}
	for _, bs := range upper {
		w.PutDeltas(bs)
	}
	for _, x := range weights {
		w.PutFloat64(x)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, trailerLen))
	return fixCRC(buf.Bytes())
}

// TestDecodeSummaryShapeChecks pins each shape check of decodeSummary, which
// summary.New relies on: one hand-made payload per check, each a minimal
// edit of a valid one (5 nodes in {0,1}, {2,3}, {4}; superedges {0,1},
// {1,2}, {2,2} weighted 1, 2.5 and 0.25), must fail with ErrCorrupt at that
// check.
func TestDecodeSummaryShapeChecks(t *testing.T) {
	members := [][]uint32{{0, 1}, {2, 3}, {4}}
	upper := [][]uint32{{1}, {2}, {2}}
	weights := []float64{1, 2.5, 0.25}
	if _, err := Decode(summaryArtifact(t, 5, 3, flagWeighted, members, upper, weights)); err != nil {
		t.Fatalf("the unedited payload does not decode: %v", err)
	}
	for _, c := range []struct {
		name           string
		flags          uint64
		members, upper [][]uint32
		weights        []float64
		want           string
	}{
		{"empty supernode", flagWeighted, [][]uint32{{0, 1}, {}, {2, 3, 4}}, upper, weights, "is empty"},
		{"out of first-occurrence order", flagWeighted, [][]uint32{{2, 3}, {0, 1}, {4}}, upper, weights, "first-occurrence order"},
		{"node out of range", flagWeighted, [][]uint32{{0, 1}, {2, 3}, {4, 5}}, upper, weights, "out of range"},
		{"node in two supernodes", flagWeighted, [][]uint32{{0, 1}, {1, 2, 3}, {4}}, upper, weights, "in two supernodes"},
		{"node in no supernode", flagWeighted, [][]uint32{{0, 1}, {2}, {4}}, upper, weights, "in no supernode"},
		{"superedge below the diagonal", flagWeighted, members, [][]uint32{{1}, {0}, {2}}, weights, "upper triangle"},
		{"superedge beyond |S|", flagWeighted, members, [][]uint32{{1}, {3}, {2}}, weights, "upper triangle"},
		{"zero weight", flagWeighted, members, upper, []float64{1, 0, 0.25}, "non-positive weight"},
		{"negative weight", flagWeighted, members, upper, []float64{1, -2.5, 0.25}, "non-positive weight"},
		{"NaN weight", flagWeighted, members, upper, []float64{1, math.NaN(), 0.25}, "non-positive weight"},
		{"weighted flag over all-1 weights", flagWeighted, members, upper, []float64{1, 1, 1}, "every weight is 1"},
		{"unknown flag bits", flagWeighted | 2, members, upper, weights, "unknown flag bits"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(summaryArtifact(t, 5, 3, c.flags, c.members, c.upper, c.weights))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want one wrapping ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want the %q check", err, c.want)
			}
		})
	}
}
