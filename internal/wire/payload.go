package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/lebin"
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
	dst = lebin.AppendString16(dst, model)
	dst = binary.LittleEndian.AppendUint32(dst, deadlineMs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(stmts)))
	for _, s := range stmts {
		dst = lebin.AppendString32(dst, s)
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
	dst = lebin.AppendString16(dst, prs[0].Name)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(prs[0].Version))
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(prs)))
	for i := range prs {
		pr := &prs[i]
		if kind == kindRegression {
			dst = lebin.AppendF64(lebin.AppendF64(dst, pr.Log), pr.Raw)
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(pr.Class))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pr.Probs)))
		for _, v := range pr.Probs {
			dst = lebin.AppendF64(dst, v)
		}
	}
	return dst
}

// appendErrorReply encodes a MsgError payload.
func appendErrorReply(dst []byte, status, retryAfterSec int, msg string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(status))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(retryAfterSec))
	return lebin.AppendString32(dst, msg)
}

// decodePredictReq parses a MsgPredict payload, appending statement
// views onto stmts[:0] (reused across requests). model and the views
// alias the payload buffer — valid only while the caller owns it.
func decodePredictReq(p []byte, stmts [][]byte) (model []byte, deadlineMs uint32, out [][]byte, err error) {
	d := lebin.NewReader(p, ErrTruncated)
	model = d.Bytes16()
	deadlineMs = d.U32()
	n := count(&d, 4) // a statement costs at least its length prefix
	if n > maxStatements {
		d.Fail(ErrTruncated)
		n = 0
	}
	out = stmts[:0]
	for range n {
		out = append(out, d.Bytes32())
	}
	if err := d.Finish(ErrFormat); err != nil {
		return nil, 0, out[:0], err
	}
	return model, deadlineMs, out, nil
}

// decodeControlReq parses a MsgControl payload; body aliases it.
func decodeControlReq(p []byte) (op service.Op, body []byte, err error) {
	d := lebin.NewReader(p, ErrTruncated)
	op = service.Op(d.Byte())
	if err := d.Err(); err != nil {
		return 0, nil, err
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
	d := lebin.NewReader(p, ErrTruncated)
	name := d.Bytes16()
	version := int(d.U32())
	kind := d.Byte()
	if kind != kindClassification && kind != kindRegression {
		d.Fail(fmt.Errorf("%w: unknown prediction kind %d", ErrFormat, kind))
	}
	n := count(&d, 4) // an item is at least a class (4 bytes) or log+raw (16)
	preds, slab = preds[:0], slab[:0]
	if n == 0 {
		return preds, slab, d.Err()
	}
	if cap(preds) < n {
		preds = make([]service.Prediction, 0, n)
	}
	pr := service.Prediction{Name: intern(name), Version: version, Classification: kind == kindClassification}
	for i := range n {
		if kind == kindRegression {
			pr.Log = d.F64()
			pr.Raw = d.F64()
			preds = append(preds, pr)
			continue
		}
		pr.Class = int(d.U32())
		m := int(d.U32())
		if !d.Fits(m, 8) {
			break
		}
		if cap(slab)-len(slab) < m {
			// Rows of one reply are equally long, so this runs once;
			// what is left of the payload bounds what a count can claim.
			slab = make([]float64, 0, min((n-i)*m, d.Remaining()/8))
		}
		pr.Probs = slab[len(slab) : len(slab) : len(slab)+m]
		slab = slab[:len(slab)+m]
		for range m {
			pr.Probs = append(pr.Probs, d.F64())
		}
		preds = append(preds, pr)
	}
	if err := d.Finish(ErrFormat); err != nil {
		return preds[:0], slab[:0], err
	}
	return preds, slab, nil
}

// decodeErrorReply parses a MsgError payload. The message is copied
// (error paths are cold).
func decodeErrorReply(p []byte) (status, retryAfterSec int, msg string, err error) {
	d := lebin.NewReader(p, ErrTruncated)
	status = int(d.U16())
	retryAfterSec = int(d.U16())
	msg = string(d.Bytes32())
	if err := d.Finish(ErrFormat); err != nil {
		return 0, 0, "", err
	}
	return status, retryAfterSec, msg, nil
}

// count reads an item count and checks it before anything is sized
// by it: at least one item, and no more than the rest of the payload
// holds at minSize bytes an item. It returns 0 once d has failed.
func count(d *lebin.Reader, minSize int) int {
	n := int(d.U32())
	if !d.Fits(n, minSize) {
		return 0
	}
	if n == 0 {
		d.Fail(fmt.Errorf("%w: zero item count", ErrFormat))
	}
	return n
}
