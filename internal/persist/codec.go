// Package persist makes shard artifacts durable: a versioned, checksummed
// binary codec for the personalized summary.Summary a distributed.Machine
// holds, plus a content-addressed Store that files each encoded artifact under its shard
// content key (distributed.ShardKey). Together they turn the paper's §IV
// deployment, which holds one personalized summary per machine, into a
// restartable one: a rebooted server decodes its cluster from disk instead
// of re-running summarization, and clusters whose m×budget exceeds RAM can
// page artifacts in by key.
//
// The codec is canonical: Encode(Decode(x)) == x byte-for-byte for every x
// Encode produces, which is what lets a disk hit honor the same bit-identity
// contract as in-memory shard reuse (equal content keys imply bit-identical
// artifacts, on disk or off).
//
// File layout (version 1):
//
//	offset 0  magic "PGAR" (4 bytes)
//	offset 4  version (1 byte)
//	offset 5  kind (1 byte: 1 = summary; any other value is corrupt)
//	offset 6  payload (bitio varints + delta-coded sorted lists)
//	trailer   CRC-32 (IEEE, little-endian) over everything before it
//
// Decoding never panics on corrupt input: every structural violation —
// truncation, bit flips, bad magic, trailing garbage, non-canonical
// shapes — returns an error wrapping ErrCorrupt, and a version this build
// does not understand returns one wrapping ErrVersion, so callers can fall
// back to rebuilding the shard.
package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"pegasus/internal/bitio"
	"pegasus/internal/summary"
)

var (
	// ErrCorrupt marks an artifact that is structurally invalid: truncated,
	// checksum-mismatched, or carrying an impossible payload. Callers should
	// treat the artifact as absent and rebuild.
	ErrCorrupt = errors.New("corrupt artifact")
	// ErrVersion marks an artifact written by a codec version this build does
	// not understand (its checksum is intact — the file is fine, the reader
	// is old). Callers should treat the artifact as absent and rebuild.
	ErrVersion = errors.New("unsupported artifact version")
)

var artifactMagic = [4]byte{'P', 'G', 'A', 'R'}

const (
	codecVersion = 1

	kindSummary = 1

	// trailerLen is the CRC-32 trailer size; headerLen the fixed prefix.
	trailerLen = 4
	headerLen  = 6
)

// Artifact is one machine's persistable payload: the personalized summary
// it serves. Summary is non-nil in every artifact Decode returns.
type Artifact struct {
	Summary *summary.Summary
}

// Encode writes the artifact to w in the versioned, checksummed format.
func Encode(w io.Writer, a Artifact) error {
	raw, err := EncodeBytes(a)
	if err != nil {
		return err
	}
	_, err = w.Write(raw)
	return err
}

// EncodeBytes encodes the artifact into a byte slice.
func EncodeBytes(a Artifact) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(artifactMagic[:])
	buf.WriteByte(codecVersion)
	if a.Summary == nil {
		//lint:typederr encode-side usage error (malformed Artifact value), not an input-bytes failure
		return nil, fmt.Errorf("persist: artifact holds no summary")
	}
	buf.WriteByte(kindSummary)
	if err := encodeSummary(&buf, a.Summary); err != nil {
		return nil, err
	}
	var crc [trailerLen]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes(), nil
}

// Decode parses an artifact from data. It accepts only complete, canonical,
// checksum-intact encodings; anything else yields ErrCorrupt or ErrVersion
// (wrapped with detail), never a panic.
func Decode(data []byte) (Artifact, error) {
	if len(data) < headerLen+trailerLen {
		return Artifact{}, fmt.Errorf("persist: %d-byte file shorter than header+trailer: %w", len(data), ErrCorrupt)
	}
	if !bytes.Equal(data[:4], artifactMagic[:]) {
		return Artifact{}, fmt.Errorf("persist: bad magic %q: %w", data[:4], ErrCorrupt)
	}
	body, trailer := data[:len(data)-trailerLen], data[len(data)-trailerLen:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return Artifact{}, fmt.Errorf("persist: checksum mismatch (file %08x, computed %08x): %w", want, got, ErrCorrupt)
	}
	// Version is checked after the checksum so a future-version file — whose
	// payload this build cannot parse but whose bytes are intact — reports
	// ErrVersion, while a bit flip that happens to land on the version byte
	// still reports ErrCorrupt.
	if v := body[4]; v != codecVersion {
		return Artifact{}, fmt.Errorf("persist: artifact version %d (this build reads %d): %w", v, codecVersion, ErrVersion)
	}
	kind, payload := body[5], body[6:]
	if kind != kindSummary {
		return Artifact{}, fmt.Errorf("persist: unknown artifact kind %d: %w", kind, ErrCorrupt)
	}
	r := bitio.NewReader(bytes.NewReader(payload))
	s, err := decodeSummary(r, len(payload))
	if err != nil {
		return Artifact{}, err
	}
	// Canonical encodings have nothing between the payload and the trailer;
	// trailing garbage (which the CRC would bless, being computed over it)
	// must not decode.
	if !r.Exhausted() {
		return Artifact{}, fmt.Errorf("persist: trailing bytes after payload: %w", ErrCorrupt)
	}
	return Artifact{Summary: s}, nil
}

const (
	flagWeighted = 1 << 0
)

// encodeSummary writes the summary payload: |V|, |S|, flags, the per-
// supernode sorted member lists, the upper-triangle (b >= a) sorted
// superneighbor lists, then — for weighted summaries only — the weight of
// each upper-triangle superedge in list order. Member and neighbor lists
// are delta+varint coded; all-1 weights are elided entirely.
//
//pegasus:hotpath codec inner loops: one iteration per supernode on every artifact write
func encodeSummary(w io.Writer, s *summary.Summary) error {
	bw := bitio.NewWriter(w)
	n, ns := s.NumNodes(), s.NumSupernodes()
	bw.PutUvarint(uint64(n))
	bw.PutUvarint(uint64(ns))
	flags := uint64(0)
	if s.Weighted() {
		flags |= flagWeighted
	}
	bw.PutUvarint(flags)
	for a := 0; a < ns; a++ {
		bw.PutDeltas(s.Members(uint32(a)))
	}
	var upper []uint32
	var weights []float64
	var cur uint32
	collect := func(b uint32, wt float64) {
		if b >= cur {
			upper = append(upper, b)
			if s.Weighted() {
				weights = append(weights, wt)
			}
		}
	}
	for cur = 0; cur < uint32(ns); cur++ {
		upper = upper[:0]
		s.ForEachSuperNeighbor(cur, collect)
		bw.PutDeltas(upper)
	}
	for _, wt := range weights {
		bw.PutFloat64(wt)
	}
	if err := bw.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// decodeSummary parses a summary payload, enforcing every invariant the
// encoder guarantees: member lists partition [0,|V|), supernodes appear in
// first-member order (the first-occurrence numbering summary.New takes, so
// re-encoding is byte-stable), superedges stay in the upper triangle of
// |S|, and weights are positive with at least one ≠ 1 iff the weighted flag
// is set. It hands the validated lists to summary.New, which checks
// nothing: this is the only path from outside bytes to a Summary.
func decodeSummary(r *bitio.Reader, payloadLen int) (*summary.Summary, error) {
	n64 := r.Uvarint()
	ns64 := r.Uvarint()
	flags := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, corrupt("summary header", err)
	}
	// Every node contributes at least one byte to its member-list entry, so a
	// node count beyond the payload length cannot be honest — reject before
	// allocating.
	if n64 > uint64(payloadLen) {
		return nil, corrupt("node count", fmt.Errorf("|V|=%d exceeds %d payload bytes", n64, payloadLen))
	}
	if ns64 > n64 {
		return nil, corrupt("supernode count", fmt.Errorf("|S|=%d exceeds |V|=%d", ns64, n64))
	}
	if flags&^flagWeighted != 0 {
		return nil, corrupt("flags", fmt.Errorf("unknown flag bits %#x", flags))
	}
	n, ns := int(n64), int(ns64)
	weighted := flags&flagWeighted != 0

	superOf := make([]uint32, n)
	seen := make([]bool, n)
	prevFirst := int64(-1)
	for a := 0; a < ns; a++ {
		ms := r.Deltas(n)
		if err := r.Err(); err != nil {
			return nil, corrupt(fmt.Sprintf("members of supernode %d", a), err)
		}
		if len(ms) == 0 {
			return nil, corrupt("members", fmt.Errorf("supernode %d is empty", a))
		}
		// First members strictly increase across supernodes exactly when the
		// IDs follow first-occurrence order — the canonical labeling every
		// summary has. Anything else would re-encode differently, so it
		// cannot have come from Encode.
		if int64(ms[0]) <= prevFirst {
			return nil, corrupt("members", fmt.Errorf("supernode %d out of first-occurrence order", a))
		}
		prevFirst = int64(ms[0])
		for _, u := range ms {
			if int(u) >= n {
				return nil, corrupt("members", fmt.Errorf("node %d out of range (|V|=%d)", u, n))
			}
			if seen[u] {
				return nil, corrupt("members", fmt.Errorf("node %d in two supernodes", u))
			}
			seen[u] = true
			superOf[u] = uint32(a)
		}
	}
	for u, ok := range seen {
		if !ok {
			return nil, corrupt("members", fmt.Errorf("node %d in no supernode", u))
		}
	}

	upper := make([][]uint32, ns)
	for a := range upper {
		bs := r.Deltas(ns - a)
		if err := r.Err(); err != nil {
			return nil, corrupt(fmt.Sprintf("superneighbors of %d", a), err)
		}
		for _, b := range bs {
			if b < uint32(a) || int(b) >= ns {
				return nil, corrupt("superedge", fmt.Errorf("{%d,%d} outside the upper triangle of |S|=%d", a, b, ns))
			}
		}
		upper[a] = bs
	}
	if !weighted {
		return summary.New(superOf, upper, nil), nil
	}
	weights := make([][]float64, ns)
	sawNonUnit := false
	for a, bs := range upper {
		weights[a] = make([]float64, len(bs))
		for i, b := range bs {
			wt := r.Float64()
			if err := r.Err(); err != nil {
				return nil, corrupt("superedge weight", err)
			}
			// wt > 0 is false for NaN too, so this also keeps NaN out.
			if !(wt > 0) {
				return nil, corrupt("superedge weight", fmt.Errorf("non-positive weight %v on {%d,%d}", wt, a, b))
			}
			if wt != 1 {
				sawNonUnit = true
			}
			weights[a][i] = wt
		}
	}
	if !sawNonUnit {
		// All-1 weights encode with the flag clear; a set flag over unit
		// weights is non-canonical and would not re-encode to itself.
		return nil, corrupt("flags", errors.New("weighted flag set but every weight is 1"))
	}
	return summary.New(superOf, upper, weights), nil
}

// corrupt wraps a parse failure as ErrCorrupt with location detail.
func corrupt(where string, err error) error {
	return fmt.Errorf("persist: %s: %v: %w", where, err, ErrCorrupt)
}
