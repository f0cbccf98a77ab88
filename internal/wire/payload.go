package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/service"
)

// Payload layouts (all little-endian, strings length-prefixed):
//
//	MsgPredict:      model u16+bytes | deadline_ms u32 | count u32 | count × (statement u32+bytes)
//	MsgControl:      op u8 | JSON body
//	MsgPredictReply: name u16+bytes | version u32 | kind u8 | count u32 | count × item
//	                   kind 1 (classification) item: class u32 | n u32 | n × f64 bits
//	                   kind 0 (regression) item:     log f64 bits | raw f64 bits
//	MsgError:        status u16 | retry-after seconds u16 | message u32+bytes
//
// Counts are at least 1. A request's predictions all run on one
// snapshot, so a reply ships name, version, and kind once.
// Probabilities travel as raw IEEE-754 bit patterns (the artifact
// format's idiom), so a prediction served over the wire is bit-
// identical to the same prediction read off the pool directly.

const (
	kindRegression     = 0
	kindClassification = 1
)

// maxStatements caps the statement count one predict request may claim;
// an honest count also fits the payload (each statement costs at least
// its 4-byte length prefix), which decode enforces before allocating.
const maxStatements = 1 << 20

// appendString16 appends a u16-length-prefixed string (model and
// registry names; the client refuses a longer model name before
// encoding it).
func appendString16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// appendString32 appends a u32-length-prefixed string.
func appendString32(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// predictReqLen is the length of the payload appendPredictReq encodes.
func predictReqLen(model string, stmts []string) int {
	n := 2 + len(model) + 4 + 4
	for _, s := range stmts {
		n += 4 + len(s)
	}
	return n
}

// appendPredictReq encodes a MsgPredict payload.
func appendPredictReq(dst []byte, model string, stmts []string, deadlineMs uint32) []byte {
	dst = appendString16(dst, model)
	dst = binary.LittleEndian.AppendUint32(dst, deadlineMs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(stmts)))
	for _, s := range stmts {
		dst = appendString32(dst, s)
	}
	return dst
}

// appendControlReq encodes a MsgControl payload.
func appendControlReq(dst []byte, op service.Op, body []byte) []byte {
	return append(append(dst, byte(op)), body...)
}

// appendPredictReply encodes a MsgPredictReply payload for prs, which
// holds at least one prediction.
func appendPredictReply(dst []byte, prs []service.Prediction) []byte {
	kind := byte(kindRegression)
	if prs[0].Classification {
		kind = kindClassification
	}
	dst = appendString16(dst, prs[0].Name)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(prs[0].Version))
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(prs)))
	for i := range prs {
		pr := &prs[i]
		if kind == kindRegression {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pr.Log))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pr.Raw))
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(pr.Class))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pr.Probs)))
		for _, v := range pr.Probs {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// appendErrorReply encodes a MsgError payload.
func appendErrorReply(dst []byte, status, retryAfterSec int, msg string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(status))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(retryAfterSec))
	return appendString32(dst, msg)
}

// decodePredictReq parses a MsgPredict payload, appending statement
// views onto stmts[:0] (reused across requests). model and the views
// alias the payload buffer — valid only while the caller owns it.
func decodePredictReq(p []byte, stmts [][]byte) (model []byte, deadlineMs uint32, out [][]byte, err error) {
	d := pdec{buf: p}
	model = d.bytes16()
	deadlineMs = d.u32()
	n := d.count(4) // a statement costs at least its length prefix
	if n > maxStatements {
		d.fail()
	}
	out = stmts[:0]
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.bytes32())
	}
	if err := d.finish(); err != nil {
		return nil, 0, out[:0], err
	}
	return model, deadlineMs, out, nil
}

// decodeControlReq parses a MsgControl payload; body aliases it.
func decodeControlReq(p []byte) (op service.Op, body []byte, err error) {
	d := pdec{buf: p}
	op = service.Op(d.byte())
	if d.err != nil {
		return 0, nil, d.err
	}
	return op, p[1:], nil
}

// decodePredictReply parses a MsgPredictReply, appending its
// predictions onto preds[:0] and their probabilities onto slab[:0],
// each grown only when short — so a caller that passes back what it
// got decodes the next reply of the same shape without allocating.
// Every Probs row views the slab, capped at its own end so an append
// on one row cannot reach the next. The name is interned by the caller.
func decodePredictReply(p []byte, preds []service.Prediction, slab []float64, intern func([]byte) string) ([]service.Prediction, []float64, error) {
	d := pdec{buf: p}
	name := d.bytes16()
	version := int(d.u32())
	kind := d.byte()
	if d.err == nil && kind != kindClassification && kind != kindRegression {
		d.err = fmt.Errorf("%w: unknown prediction kind %d", ErrFormat, kind)
	}
	n := d.count(4) // an item is at least a class (4 bytes) or log+raw (16)
	preds, slab = preds[:0], slab[:0]
	if d.err != nil {
		return preds, slab, d.err
	}
	if cap(preds) < n {
		preds = make([]service.Prediction, 0, n)
	}
	pr := service.Prediction{Name: intern(name), Version: version, Classification: kind == kindClassification}
	for i := 0; i < n && d.err == nil; i++ {
		if kind == kindRegression {
			pr.Log = d.f64()
			pr.Raw = d.f64()
			preds = append(preds, pr)
			continue
		}
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
		pr.Probs = slab[len(slab) : len(slab) : len(slab)+m]
		slab = slab[:len(slab)+m]
		for k := 0; k < m; k++ {
			pr.Probs = append(pr.Probs, d.f64())
		}
		preds = append(preds, pr)
	}
	if err := d.finish(); err != nil {
		return preds[:0], slab[:0], err
	}
	return preds, slab, nil
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

// count reads an item count and checks it before anything is sized
// by it: at least one item, and no more than the rest of the payload
// holds at minSize bytes an item.
func (d *pdec) count(minSize int) int {
	n := int(d.u32())
	switch {
	case d.err != nil:
	case n == 0:
		d.err = fmt.Errorf("%w: zero item count", ErrFormat)
	case n > d.remaining()/minSize:
		d.fail()
	default:
		return n
	}
	return 0
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
