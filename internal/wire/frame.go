// Package wire is the prediction service's binary wire protocol: a
// length-prefixed framed transport over TCP or unix sockets with
// persistent connections, request pipelining, and out-of-order
// responses tagged by a u64 request ID.
//
// The HTTP/JSON front door costs ~10× the inference it carries (PR 7
// measured a 304µs client p50 over a 28µs pool p50): per-request
// header parsing, JSON encode/decode on both sides, and no pipelining.
// This package is the classic database wire-protocol answer — one
// persistent connection, fixed 20-byte frame headers, raw IEEE-754
// payloads for the predict hot path. Payloads are read with
// internal/lebin, the one little-endian reader the artifact and WAL
// formats also use: length-prefixed strings, sticky-error bounds
// checks, and every count validated before anything is sized by it.
//
// Frame layout (all integers little-endian):
//
//	magic "RPW\x01" (u32) | version u8 | type u8 | reserved u16 = 0 |
//	request id u64 | payload length u32 | payload
//
// Requests come in two shapes, as on HTTP: MsgPredict carries one or
// more statements (one statement is a batch of one), and MsgControl
// carries a service.Op byte and that op's JSON body, which the server
// hands unchanged to service.Control — the op table HTTP routes to —
// so the two transports cannot drift. Replies are MsgPredictReply,
// MsgJSON or MsgError, and may arrive in any order; the request ID
// ties a reply frame to its request. The predict data plane is fully
// binary and allocation-free warm on both sides via per-connection
// reused buffers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/service"
)

// Version is the current protocol version. Both sides reject frames
// from any other version with ErrVersion rather than guessing at their
// layout. Version 1 had a message type per control op and separate
// single and batch predict messages.
const Version = 2

// magic identifies a protocol frame ("RPW" + format generation 1).
var magic = [4]byte{'R', 'P', 'W', 0x01}

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 20

// DefaultMaxPayload is the payload-length cap Server and Client apply
// (the same cap the HTTP handler puts on request bodies). A frame
// claiming more is rejected before any payload-sized allocation and
// the connection is closed; the Client refuses to send one.
const DefaultMaxPayload = service.MaxBodyBytes

// Typed frame decode failures. All are wrapped with context; match
// with errors.Is. A frame-level failure means the byte stream can no
// longer be trusted to be frame-aligned, so both sides close the
// connection on one.
var (
	// ErrFormat is returned for data that is not a protocol frame at
	// all (bad magic, nonzero reserved bits, unknown message type).
	ErrFormat = errors.New("wire: not a protocol frame")
	// ErrVersion is returned for frames with an unknown protocol
	// version.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrTooLarge is returned when a frame header claims a payload
	// beyond the configured cap. The claim is rejected before any
	// payload allocation, so an adversarial length cannot OOM the peer.
	ErrTooLarge = errors.New("wire: frame payload exceeds limit")
	// ErrTruncated is returned when the data ends mid-frame.
	ErrTruncated = errors.New("wire: truncated frame")
)

// ErrTransport wraps connection-level failures (dial, broken pipe,
// mid-request EOF) reported by the wire client, so callers can tell a
// dead transport (errors.Is(err, ErrTransport): reconnect and retry)
// from a typed server reply. Protocol-level failures (ErrFormat and
// friends) are also transport-fatal and match ErrTransport when
// surfaced from a connection.
var ErrTransport = errors.New("wire: transport failure")

// MsgType tags a frame's payload shape.
type MsgType uint8

// Request message types (client → server).
const (
	// MsgPredict asks for one prediction per statement: binary payload
	// model | deadline_ms | count | count × statement. One statement is
	// a batch of one.
	MsgPredict MsgType = 0x01
	// MsgControl runs one control-plane operation: the first payload
	// byte is the service.Op, the rest is that op's JSON body (empty for
	// the ops that take none); the reply is a MsgJSON document.
	MsgControl MsgType = 0x02
)

// Reply message types (server → client).
const (
	// MsgError is a typed failure reply: binary payload
	// status u16 | retry-after seconds u16 | message. The status is the
	// exact HTTP status service.StatusFor assigns the same error, so
	// sentinel mapping is identical across transports.
	MsgError MsgType = 0x20
	// MsgPredictReply answers MsgPredict: binary payload
	// name | version | kind | count | count × prediction.
	MsgPredictReply MsgType = 0x21
	// MsgJSON answers MsgControl with a JSON document.
	MsgJSON MsgType = 0x22
)

// validType reports whether t is a known message type.
func validType(t MsgType) bool {
	return (t >= MsgPredict && t <= MsgControl) || (t >= MsgError && t <= MsgJSON)
}

// String names the message type for logs and errors.
func (t MsgType) String() string {
	switch t {
	case MsgPredict:
		return "predict"
	case MsgControl:
		return "control"
	case MsgError:
		return "error"
	case MsgPredictReply:
		return "predict-reply"
	case MsgJSON:
		return "json-reply"
	default:
		return fmt.Sprintf("type(0x%02x)", uint8(t))
	}
}

// Header is one decoded frame header.
type Header struct {
	Type MsgType
	ID   uint64
	// Len is the payload length in bytes.
	Len int
}

// appendHeader appends a frame header to dst.
func appendHeader(dst []byte, t MsgType, id uint64, payloadLen int) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, Version, byte(t), 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadLen))
	return dst
}

// beginFrame appends a frame header with a placeholder payload length
// and returns the extended buffer; the caller appends the payload and
// finishes with endFrame. This lets encoders build header and payload
// in one reused buffer and write the frame with a single syscall.
func beginFrame(dst []byte, t MsgType, id uint64) []byte {
	return appendHeader(dst, t, id, 0)
}

// endFrame patches the payload length of the frame whose header starts
// at start. buf must hold that complete frame (header + payload) as
// its tail.
func endFrame(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start+16:], uint32(len(buf)-start-HeaderSize))
	return buf
}

// parseHeader validates a frame header against the payload cap. It
// checks shape (magic, version, reserved bits, known type) before
// trusting the length claim, so corrupt or adversarial headers fail
// typed without any payload-sized allocation.
func parseHeader(hdr []byte, maxPayload int) (Header, error) {
	if len(hdr) < HeaderSize {
		return Header{}, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(hdr))
	}
	if [4]byte(hdr[:4]) != magic {
		return Header{}, ErrFormat
	}
	if hdr[4] != Version {
		return Header{}, fmt.Errorf("%w: %d (peer supports %d)", ErrVersion, hdr[4], Version)
	}
	t := MsgType(hdr[5])
	if !validType(t) {
		return Header{}, fmt.Errorf("%w: unknown message type 0x%02x", ErrFormat, hdr[5])
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return Header{}, fmt.Errorf("%w: nonzero reserved bits", ErrFormat)
	}
	n := binary.LittleEndian.Uint32(hdr[16:])
	if int64(n) > int64(maxPayload) {
		// Returned bare (no wrapping): rejecting an adversarial length
		// claim must itself be allocation-free.
		return Header{}, ErrTooLarge
	}
	return Header{Type: t, ID: binary.LittleEndian.Uint64(hdr[8:]), Len: int(n)}, nil
}

// DecodeFrame decodes one complete frame from the head of data,
// returning its header, payload (a subslice of data — no copy, no
// allocation), and the remaining bytes. It is the slice-shaped twin of
// frameReader.next used by tests and the fuzz target: it never panics
// and never allocates proportionally to a corrupt length claim.
func DecodeFrame(data []byte, maxPayload int) (Header, []byte, []byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	h, err := parseHeader(data, maxPayload)
	if err != nil {
		return Header{}, nil, nil, err
	}
	if len(data)-HeaderSize < h.Len {
		return Header{}, nil, nil, fmt.Errorf("%w: header claims %d payload bytes, %d present",
			ErrTruncated, h.Len, len(data)-HeaderSize)
	}
	return h, data[HeaderSize : HeaderSize+h.Len], data[HeaderSize+h.Len:], nil
}

// AppendFrame appends one complete frame to dst.
func AppendFrame(dst []byte, t MsgType, id uint64, payload []byte) []byte {
	dst = appendHeader(dst, t, id, len(payload))
	return append(dst, payload...)
}

// frameReader reads frames from a stream into reused per-connection
// buffers: the warm path performs zero allocations once the payload
// buffer has grown to the connection's working set.
type frameReader struct {
	r          io.Reader
	maxPayload int
	hdr        [HeaderSize]byte
	payload    []byte
}

// next reads one frame. The returned payload is valid only until the
// following next call (it aliases the reader's reused buffer). io.EOF
// is returned untouched for a clean close between frames; any other
// failure is wrapped.
func (fr *frameReader) next() (Header, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return Header{}, nil, io.EOF
		}
		return Header{}, nil, fmt.Errorf("%w: read header: %v", ErrTruncated, err)
	}
	h, err := parseHeader(fr.hdr[:], fr.maxPayload)
	if err != nil {
		return Header{}, nil, err
	}
	if cap(fr.payload) < h.Len {
		fr.payload = make([]byte, h.Len)
	}
	buf := fr.payload[:h.Len]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return Header{}, nil, fmt.Errorf("%w: read %d-byte payload: %v", ErrTruncated, h.Len, err)
	}
	return h, buf, nil
}
