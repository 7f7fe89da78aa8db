// Package bitio provides the variable-length integer and delta coding of
// the on-disk summary artifacts (internal/persist). The paper (§I,
// footnote 1) notes a summary graph "can be further compressed using any
// graph-compression technique"; sorted member and superneighbor lists
// delta+varint encode to a fraction of their fixed-width size, in the
// spirit of the WebGraph framework [1].
package bitio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ErrMalformed marks a stream that violates the coding invariants (varint
// overflow, length cap exceeded, non-increasing delta sequence). Every
// reader-side failure other than plain I/O errors wraps it, so callers —
// internal/persist wraps it once more into ErrCorrupt — can classify
// decode failures with errors.Is.
var ErrMalformed = errors.New("bitio: malformed stream")

// Writer encodes varints and delta-coded sequences.
type Writer struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// PutUvarint writes x in LEB128 variable-length encoding.
//
//pegasus:hotpath codec inner loop: one call per member/neighbor entry
func (w *Writer) PutUvarint(x uint64) {
	if w.err != nil {
		return
	}
	for x >= 0x80 {
		if w.err = w.w.WriteByte(byte(x) | 0x80); w.err != nil {
			return
		}
		w.n++
		x >>= 7
	}
	if w.err = w.w.WriteByte(byte(x)); w.err == nil {
		w.n++
	}
}

// PutFloat64 writes the IEEE-754 bit pattern of x as 8 little-endian bytes.
// Float bits spread across the whole word, so a varint would usually cost
// more than the fixed width; the exact bit pattern round-trips (including
// NaN payloads and infinities).
func (w *Writer) PutFloat64(x float64) {
	if w.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
	n, err := w.w.Write(buf[:])
	w.n += int64(n)
	w.err = err
}

// PutDeltas writes a strictly increasing uint32 sequence as a count followed
// by first value and successive gaps (gap-1 since gaps are >= 1).
//
//pegasus:hotpath codec inner loop: one call per adjacency list
func (w *Writer) PutDeltas(xs []uint32) {
	w.PutUvarint(uint64(len(xs)))
	prev := uint32(0)
	for i, x := range xs {
		if i == 0 {
			w.PutUvarint(uint64(x))
		} else {
			if x <= prev {
				//lint:typederr encoder-misuse error (caller handed a non-increasing sequence), not an input-bytes failure
				w.err = fmt.Errorf("bitio: sequence not strictly increasing at %d (%d <= %d)", i, x, prev) //lint:hotalloc cold error exit: fires at most once, then the writer is poisoned
				return
			}
			w.PutUvarint(uint64(x-prev) - 1)
		}
		prev = x
	}
}

// BytesWritten returns the number of payload bytes emitted so far.
func (w *Writer) BytesWritten() int64 { return w.n }

// Flush flushes buffered output and reports any deferred error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// Reader decodes what Writer encodes.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Uvarint reads one LEB128 varint.
//
//pegasus:hotpath codec inner loop: one call per member/neighbor entry
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var x uint64
	var shift uint
	for {
		b, err := r.r.ReadByte()
		if err != nil {
			r.err = err
			return 0
		}
		if shift >= 64 {
			//lint:hotalloc cold error exit: fires at most once, then the reader is poisoned
			r.err = fmt.Errorf("varint overflow: %w", ErrMalformed)
			return 0
		}
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x
		}
		shift += 7
	}
}

// Float64 reads a float written by PutFloat64.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.err = err
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

// Exhausted reports whether the stream has no bytes left. It consumes one
// byte when the stream is non-empty, so call it only after the final read —
// it is the decoder's trailing-garbage check.
func (r *Reader) Exhausted() bool {
	if r.err != nil {
		return false
	}
	_, err := r.r.ReadByte()
	return err == io.EOF
}

// Deltas reads a sequence written by PutDeltas. maxLen guards against
// corrupt counts.
//
//pegasus:hotpath codec inner loop: one call per adjacency list
func (r *Reader) Deltas(maxLen int) []uint32 {
	n := int(r.Uvarint())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxLen {
		r.err = fmt.Errorf("sequence length %d exceeds cap %d: %w", n, maxLen, ErrMalformed)
		return nil
	}
	out := make([]uint32, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		v := r.Uvarint()
		if r.err != nil {
			return nil
		}
		// Reject the gap before adding: a near-2^64 varint would wrap
		// prev+v+1 around uint64 and slip a NON-increasing sequence past the
		// range check below — decoders rely on Deltas never doing that.
		if v > 0xffffffff {
			//lint:hotalloc cold error exit: fires at most once, then the reader is poisoned
			r.err = fmt.Errorf("value overflows uint32: %w", ErrMalformed)
			return nil
		}
		if i == 0 {
			prev = v
		} else {
			prev = prev + v + 1
		}
		if prev > 0xffffffff {
			//lint:hotalloc cold error exit: fires at most once, then the reader is poisoned
			r.err = fmt.Errorf("value overflows uint32: %w", ErrMalformed)
			return nil
		}
		out[i] = uint32(prev)
	}
	return out
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }
