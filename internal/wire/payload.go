package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/service"
)

// Payload layouts (all little-endian, strings length-prefixed):
//
//	MsgPredict:           model u16+bytes | deadline_ms u32 | statement u32+bytes
//	MsgPredictBatch:      model u16+bytes | deadline_ms u32 | count u32 | count × (statement u32+bytes)
//	MsgPredictReply:      name u16+bytes | version u32 | kind u8 |
//	                        kind 1 (classification): class u32 | n u32 | n × f64 bits
//	                        kind 0 (regression):     log f64 bits | raw f64 bits
//	MsgPredictBatchReply: name u16+bytes | version u32 | kind u8 | count u32 | count × item
//	MsgError:             status u16 | retry-after seconds u16 | message u32+bytes
//
// Probabilities travel as raw IEEE-754 bit patterns (the artifact
// format's idiom), so a prediction served over the wire is bit-
// identical to the same prediction read off the pool directly.

const (
	kindRegression     = 0
	kindClassification = 1
)

// maxStatements caps the statement count one batch request may claim;
// an honest count also fits the payload (each statement costs at least
// its 4-byte length prefix), which decode enforces before allocating.
const maxStatements = 1 << 20

// appendString16 appends a u16-length-prefixed string (model and
// registry names; their length is bounded far below 64KiB).
func appendString16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// appendString32 appends a u32-length-prefixed string.
func appendString32(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendPredictReq encodes a MsgPredict payload.
func appendPredictReq(dst []byte, model, stmt string, deadlineMs uint32) []byte {
	dst = appendString16(dst, model)
	dst = binary.LittleEndian.AppendUint32(dst, deadlineMs)
	return appendString32(dst, stmt)
}

// appendPredictBatchReq encodes a MsgPredictBatch payload.
func appendPredictBatchReq(dst []byte, model string, stmts []string, deadlineMs uint32) []byte {
	dst = appendString16(dst, model)
	dst = binary.LittleEndian.AppendUint32(dst, deadlineMs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(stmts)))
	for _, s := range stmts {
		dst = appendString32(dst, s)
	}
	return dst
}

// appendPredictReply encodes a MsgPredictReply payload.
func appendPredictReply(dst []byte, pr *service.Prediction) []byte {
	dst = appendString16(dst, pr.Name)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(pr.Version))
	if pr.Classification {
		dst = append(dst, kindClassification)
		return appendPredictItem(dst, pr)
	}
	dst = append(dst, kindRegression)
	return appendPredictItem(dst, pr)
}

// appendPredictBatchReply encodes a MsgPredictBatchReply payload. A
// batch runs entirely on one snapshot, so name, version, and kind are
// shipped once.
func appendPredictBatchReply(dst []byte, prs []service.Prediction) []byte {
	kind := byte(kindRegression)
	if len(prs) > 0 && prs[0].Classification {
		kind = kindClassification
	}
	var name string
	var version int
	if len(prs) > 0 {
		name, version = prs[0].Name, prs[0].Version
	}
	dst = appendString16(dst, name)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(version))
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(prs)))
	for i := range prs {
		dst = appendPredictItem(dst, &prs[i])
	}
	return dst
}

// appendPredictItem encodes one prediction body (class + probs, or
// log + raw).
func appendPredictItem(dst []byte, pr *service.Prediction) []byte {
	if pr.Classification {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(pr.Class))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pr.Probs)))
		for _, v := range pr.Probs {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		return dst
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pr.Log))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(pr.Raw))
}

// appendErrorReply encodes a MsgError payload.
func appendErrorReply(dst []byte, status, retryAfterSec int, msg string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(status))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(retryAfterSec))
	return appendString32(dst, msg)
}

// decodePredictReq parses a MsgPredict payload. model and stmt alias
// the payload buffer — valid only while the caller owns it.
func decodePredictReq(p []byte) (model, stmt []byte, deadlineMs uint32, err error) {
	d := pdec{buf: p}
	model = d.bytes16()
	deadlineMs = d.u32()
	stmt = d.bytes32()
	if err := d.finish(); err != nil {
		return nil, nil, 0, err
	}
	return model, stmt, deadlineMs, nil
}

// decodePredictBatchReq parses a MsgPredictBatch payload, appending
// statement views onto stmts (reused across requests). The views alias
// the payload buffer.
func decodePredictBatchReq(p []byte, stmts [][]byte) (model []byte, deadlineMs uint32, out [][]byte, err error) {
	d := pdec{buf: p}
	model = d.bytes16()
	deadlineMs = d.u32()
	n := int(d.u32())
	// Shape check before trusting the count: each statement costs at
	// least its 4-byte length prefix.
	if d.err == nil && (n > maxStatements || n > d.remaining()/4) {
		d.fail()
	}
	out = stmts[:0]
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.bytes32())
	}
	if err := d.finish(); err != nil {
		return nil, 0, nil, err
	}
	return model, deadlineMs, out, nil
}

// decodePredictReply parses a MsgPredictReply into pr, writing
// probabilities into probs (grown only when capacity is insufficient)
// and returning the written slice for reuse. pr.Name is interned per
// connection by the caller; here it is allocated only when it changes.
func decodePredictReply(p []byte, pr *service.Prediction, probs []float64, intern func([]byte) string) ([]float64, error) {
	d := pdec{buf: p}
	name := d.bytes16()
	version := int(d.u32())
	kind := d.byte()
	probs = probs[:0]
	switch kind {
	case kindClassification:
		pr.Classification = true
		pr.Class = int(d.u32())
		n := int(d.u32())
		if d.err == nil && n > d.remaining()/8 {
			d.fail()
		}
		if d.err == nil && cap(probs) < n {
			// One right-sized grow instead of append doubling from nil —
			// a bare Predict (no reused buffer) pays 1 alloc, not ~4.
			probs = make([]float64, 0, n)
		}
		for i := 0; i < n && d.err == nil; i++ {
			probs = append(probs, d.f64())
		}
		pr.Probs = probs
		pr.Log, pr.Raw = 0, 0
	case kindRegression:
		pr.Classification = false
		pr.Class = 0
		pr.Probs = nil
		pr.Log = d.f64()
		pr.Raw = d.f64()
	default:
		if d.err == nil {
			d.err = fmt.Errorf("%w: unknown prediction kind %d", ErrFormat, kind)
		}
	}
	if err := d.finish(); err != nil {
		return probs, err
	}
	pr.Name = intern(name)
	pr.Version = version
	return probs, nil
}

// decodePredictBatchReply parses a MsgPredictBatchReply into a fresh
// prediction slice (batch results are retention-safe by construction).
func decodePredictBatchReply(p []byte, intern func([]byte) string) ([]service.Prediction, error) {
	d := pdec{buf: p}
	name := intern(d.bytes16())
	version := int(d.u32())
	kind := d.byte()
	n := int(d.u32())
	// Every item costs at least 4 bytes (class) or 16 (log+raw).
	if d.err == nil && (kind != kindClassification && kind != kindRegression || n > d.remaining()/4) {
		if d.err == nil && kind != kindClassification && kind != kindRegression {
			d.err = fmt.Errorf("%w: unknown prediction kind %d", ErrFormat, kind)
		} else {
			d.fail()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	out := make([]service.Prediction, 0, n)
	var slab []float64 // backs every Probs row of the reply
	for i := 0; i < n && d.err == nil; i++ {
		pr := service.Prediction{Name: name, Version: version}
		if kind == kindClassification {
			pr.Classification = true
			pr.Class = int(d.u32())
			m := int(d.u32())
			if d.err == nil && m > d.remaining()/8 {
				d.fail()
				break
			}
			if cap(slab)-len(slab) < m {
				// Rows of one reply are equally long, so this runs once;
				// what is left of the payload bounds what a count can claim.
				slab = make([]float64, 0, min((n-i)*m, d.remaining()/8))
			}
			// Capped at the row's own end: an append on one row cannot
			// reach the next.
			pr.Probs = slab[len(slab) : len(slab) : len(slab)+m]
			slab = slab[:len(slab)+m]
			for k := 0; k < m && d.err == nil; k++ {
				pr.Probs = append(pr.Probs, d.f64())
			}
		} else {
			pr.Log = d.f64()
			pr.Raw = d.f64()
		}
		out = append(out, pr)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeErrorReply parses a MsgError payload. The message is copied
// (error paths are cold).
func decodeErrorReply(p []byte) (status, retryAfterSec int, msg string, err error) {
	d := pdec{buf: p}
	status = int(d.u16())
	retryAfterSec = int(d.u16())
	msg = string(d.bytes32())
	if err := d.finish(); err != nil {
		return 0, 0, "", err
	}
	return status, retryAfterSec, msg, nil
}

// pdec reads little-endian payload fields with sticky-error bounds
// checks, mirroring internal/artifact's decoder: the first
// out-of-bounds read records ErrTruncated and every subsequent read
// returns zero values, so decode logic stays linear. It never
// allocates — byte fields are views into the payload.
type pdec struct {
	buf []byte
	off int
	err error
}

func (d *pdec) remaining() int { return len(d.buf) - d.off }

func (d *pdec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: payload ends at offset %d", ErrTruncated, d.off)
	}
}

func (d *pdec) take(n int) []byte {
	if d.err != nil || n < 0 || d.remaining() < n {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *pdec) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *pdec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *pdec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *pdec) f64() float64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// bytes16 reads a u16-length-prefixed byte field as a payload view.
func (d *pdec) bytes16() []byte { return d.take(int(d.u16())) }

// bytes32 reads a u32-length-prefixed byte field as a payload view.
func (d *pdec) bytes32() []byte {
	n := d.u32()
	if d.err == nil && int64(n) > int64(d.remaining()) {
		d.fail()
		return nil
	}
	return d.take(int(n))
}

// finish reports the sticky error, or ErrFormat if decoding left
// trailing bytes (a shape mismatch, not honest truncation).
func (d *pdec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrFormat, len(d.buf)-d.off)
	}
	return nil
}
