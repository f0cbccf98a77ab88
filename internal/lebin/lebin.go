// Package lebin is the one little-endian reader behind the repo's
// binary formats: model artifacts (internal/artifact), wire payloads
// (internal/wire) and WAL record bodies (internal/ingest).
//
// A Reader bounds-checks every field and keeps the first failure:
// every read after it returns the zero value, so a decoder reads its
// layout as straight-line code and asks for the error once. A count or
// length taken from the input is checked against what is left before
// anything is sized by it (Fits, Bytes16, Bytes32), so no input can
// make a decoder allocate more than the input backs. Each format keeps
// its own error sentinels: the Reader reports a short read as the
// sentinel its caller chose, and trailing bytes as the format error
// passed to Finish.
package lebin

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader reads little-endian fields from a byte slice with a sticky
// error. Byte fields are views into the slice, and no read allocates,
// not even one that fails; Err builds the error when it is asked for.
type Reader struct {
	buf   []byte
	off   int
	err   error
	short error
}

// NewReader returns a Reader over buf that reports reading past its
// end as short (wrapped with the offset; match with errors.Is).
func NewReader(buf []byte, short error) Reader {
	return Reader{buf: buf, short: short}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail records err as the Reader's error unless one is already set.
// Failing with the short sentinel reports it at the current offset,
// like a short read.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error {
	if r.err != nil && r.err == r.short {
		return fmt.Errorf("%w: input ends at offset %d", r.short, r.off)
	}
	return r.err
}

// Finish returns the first failure, or formatErr if unread bytes are
// left: a shape mismatch, not an honest truncation.
func (r *Reader) Finish(formatErr error) error {
	if err := r.Err(); err != nil {
		return err
	}
	if n := r.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d trailing bytes", formatErr, n)
	}
	return nil
}

// Fits reports whether n items of size bytes each fit in the unread
// input, and records the short error when they do not. Call it on a
// count read from the input before anything is sized by that count.
func (r *Reader) Fits(n, size int) bool {
	if r.err == nil && (n < 0 || n > r.Remaining()/size) {
		r.err = r.short
	}
	return r.err == nil
}

// take returns the next n bytes as a view, or nil once failed.
func (r *Reader) take(n int) []byte {
	if !r.Fits(n, 1) {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float64 stored as its IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes16 reads a u16-length-prefixed byte field as a view.
func (r *Reader) Bytes16() []byte { return r.take(int(r.U16())) }

// Bytes32 reads a u32-length-prefixed byte field as a view. A length
// beyond the unread input fails without allocating.
func (r *Reader) Bytes32() []byte { return r.take(int(r.U32())) }

// AppendString16 appends s with a u16 length prefix. The caller keeps
// s under 64 KiB.
func AppendString16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// AppendString32 appends s with a u32 length prefix.
func AppendString32(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendF64 appends v's IEEE-754 bit pattern.
func AppendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
