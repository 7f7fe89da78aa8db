package ingest

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseEdgeList drives the full ingestion pipeline on arbitrary bytes.
// The invariants, in order:
//
//  1. no panic, ever;
//  2. every failure is typed (wraps ErrFormat or ErrLimit);
//  3. success is worker-count invariant (bit-identical graph, equal stats);
//  4. a parsed graph is structurally valid and round-trips:
//     Parse(WriteSNAP(G)) == G with no remapping.
//
// The committed corpus under testdata/fuzz/FuzzParseEdgeList seeds the
// interesting regions: comment dialects, CRLF, malformed tokens, huge IDs,
// sparse-ID remaps, and truncated gzip streams.
func FuzzParseEdgeList(f *testing.F) {
	f.Add([]byte("1 2\n2 3\n"))
	f.Add([]byte("# c\n5\t7\r\n7\t5\n5 5\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// MaxBytes bounds gzip expansion so a fuzz-found "bomb" degrades
		// into a typed ErrLimit instead of an OOM.
		opt := Options{Workers: 1, MaxBytes: 1 << 20}
		r1, err := ParseBytes(data, opt)
		if err != nil {
			if !errors.Is(err, ErrFormat) && !errors.Is(err, ErrLimit) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := r1.Graph.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}

		for _, w := range []int{3, 8} {
			rw, err := ParseBytes(data, Options{Workers: w, MaxBytes: 1 << 20})
			if err != nil {
				t.Fatalf("workers=%d failed where workers=1 succeeded: %v", w, err)
			}
			if !sameGraph(t, rw.Graph, r1.Graph) {
				t.Fatalf("workers=%d graph differs from workers=1", w)
			}
			if rw.Stats != r1.Stats {
				t.Fatalf("workers=%d stats %+v differ from workers=1 %+v", w, rw.Stats, r1.Stats)
			}
		}

		// Round-trip: the dense re-encoding must parse back bit-identically.
		var enc bytes.Buffer
		if err := WriteSNAP(&enc, r1.Graph); err != nil {
			t.Fatalf("WriteSNAP: %v", err)
		}
		r2, err := ParseBytes(enc.Bytes(), Options{Workers: 2})
		if err != nil {
			t.Fatalf("re-parse of encoded graph failed: %v", err)
		}
		if r2.Stats.Remapped {
			t.Fatal("re-parse of dense encoding required remapping")
		}
		if !sameGraph(t, r2.Graph, r1.Graph) {
			t.Fatal("Parse(WriteSNAP(G)) != G")
		}
	})
}
