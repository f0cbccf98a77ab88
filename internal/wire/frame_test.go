package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/service"
)

func testPrediction() service.Prediction {
	return service.Prediction{
		Name: "m", Version: 3, Classification: true, Class: 1,
		Probs: []float64{0.25, 0.5, 0.25},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello wire")
	data := AppendFrame(nil, MsgPredict, 42, payload)
	data = AppendFrame(data, MsgError, 43, nil)

	h, p, rest, err := DecodeFrame(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgPredict || h.ID != 42 || h.Len != len(payload) || !bytes.Equal(p, payload) {
		t.Fatalf("frame 1 = %+v payload %q", h, p)
	}
	h, p, rest, err = DecodeFrame(rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgError || h.ID != 43 || h.Len != 0 || len(p) != 0 {
		t.Fatalf("frame 2 = %+v payload %q", h, p)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestBeginEndFrame(t *testing.T) {
	buf := AppendFrame(nil, MsgHealthz, 1, nil) // prior frame in the buffer
	start := len(buf)
	buf = beginFrame(buf, MsgPredictReply, 7)
	buf = append(buf, "payload bytes"...)
	buf = endFrame(buf, start)

	_, _, rest, err := DecodeFrame(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, p, rest, err := DecodeFrame(rest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgPredictReply || h.ID != 7 || string(p) != "payload bytes" || len(rest) != 0 {
		t.Fatalf("patched frame = %+v payload %q rest %d", h, p, len(rest))
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	valid := AppendFrame(nil, MsgPredict, 9, []byte("abc"))

	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:HeaderSize-1], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' }), ErrFormat},
		{"bad version", corrupt(func(b []byte) { b[4] = 99 }), ErrVersion},
		{"unknown type", corrupt(func(b []byte) { b[5] = 0xEE }), ErrFormat},
		{"reserved bits", corrupt(func(b []byte) { b[6] = 1 }), ErrFormat},
		{"truncated payload", valid[:len(valid)-1], ErrTruncated},
		{"oversize claim", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[16:], 1<<30)
		}), ErrTooLarge},
	}
	for _, tc := range cases {
		if _, _, _, err := DecodeFrame(tc.data, 1<<20); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestOversizeClaimNoAlloc pins the security property: a header
// claiming a huge payload is rejected before any payload-sized
// allocation, on both the slice and the stream decoder.
func TestOversizeClaimNoAlloc(t *testing.T) {
	evil := AppendFrame(nil, MsgPredict, 1, nil)
	binary.LittleEndian.PutUint32(evil[16:], 1<<31-1)

	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, err := DecodeFrame(evil, 1<<20); !errors.Is(err, ErrTooLarge) {
			t.Fatal("oversize claim accepted")
		}
	}); allocs != 0 {
		t.Errorf("DecodeFrame oversize: %.1f allocs/op, want 0", allocs)
	}

	fr := frameReader{r: bytes.NewReader(evil), maxPayload: 1 << 20}
	if _, _, err := fr.next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("frameReader oversize err = %v", err)
	}
	if cap(fr.payload) != 0 {
		t.Fatalf("frameReader allocated %d payload bytes for a rejected claim", cap(fr.payload))
	}
}

// TestBatchReplyRowsShareOneSlab pins what decoding a batch reply
// allocates: the prediction slice and one backing array for every
// Probs row, each row capped at its own end so an append on one cannot
// reach the next. Rows of unequal length (no server sends them) still
// decode, and counts the payload cannot back size nothing beyond it.
func TestBatchReplyRowsShareOneSlab(t *testing.T) {
	intern := func(b []byte) string { return "m" }
	prs := make([]service.Prediction, 16)
	for i := range prs {
		prs[i] = testPrediction()
		prs[i].Probs = []float64{float64(i), 0.5, -float64(i)}
	}
	payload := appendPredictBatchReply(nil, prs)
	got, err := decodePredictBatchReply(payload, intern)
	if err != nil || len(got) != len(prs) {
		t.Fatalf("decode: %d predictions, %v", len(got), err)
	}
	for i, pr := range got {
		if len(pr.Probs) != 3 || cap(pr.Probs) != 3 {
			t.Fatalf("row %d: len %d cap %d, want 3 and 3", i, len(pr.Probs), cap(pr.Probs))
		}
		for k, v := range pr.Probs {
			if v != prs[i].Probs[k] {
				t.Fatalf("row %d: %v, want %v", i, pr.Probs, prs[i].Probs)
			}
		}
	}
	_ = append(got[0].Probs, 99)
	if got[1].Probs[0] != 1 {
		t.Fatal("an append on row 0 reached row 1")
	}
	if !raceEnabled {
		if allocs := testing.AllocsPerRun(100, func() { decodePredictBatchReply(payload, intern) }); allocs != 2 {
			t.Errorf("decoding a 16-row reply: %v allocs, want 2 (predictions, row slab)", allocs)
		}
	}

	prs[5].Probs = []float64{1, 2, 3, 4, 5}
	prs[9].Probs = nil
	got, err = decodePredictBatchReply(appendPredictBatchReply(nil, prs), intern)
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range got {
		if len(pr.Probs) != len(prs[i].Probs) {
			t.Fatalf("ragged row %d: %v, want %v", i, pr.Probs, prs[i].Probs)
		}
		for k, v := range pr.Probs {
			if v != prs[i].Probs[k] {
				t.Fatalf("ragged row %d: %v, want %v", i, pr.Probs, prs[i].Probs)
			}
		}
	}

	// 16 000 rows claimed and a first row of 8 000 floats: each count
	// passes its own check against the 64 KiB present, their product is
	// a gigabyte. The slab is sized by what the payload can still hold.
	evil := appendPredictBatchReply(nil, prs[:0])
	evil[len(evil)-5] = kindClassification
	binary.LittleEndian.PutUint32(evil[len(evil)-4:], 16000)
	evil = binary.LittleEndian.AppendUint32(evil, 0)    // class
	evil = binary.LittleEndian.AppendUint32(evil, 8000) // row length
	evil = append(evil, make([]byte, 64<<10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decodePredictBatchReply(evil, intern)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("row counts the payload cannot back: err = %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("decoding a 64 KiB payload allocated %d bytes", grew)
	}
}

func TestFrameReaderStream(t *testing.T) {
	var stream []byte
	for i := 0; i < 5; i++ {
		stream = AppendFrame(stream, MsgPredict, uint64(i), bytes.Repeat([]byte{byte(i)}, i*3))
	}
	fr := frameReader{r: bytes.NewReader(stream), maxPayload: 1 << 20}
	for i := 0; i < 5; i++ {
		h, p, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if h.ID != uint64(i) || len(p) != i*3 {
			t.Fatalf("frame %d: %+v", i, h)
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("at stream end err = %v, want io.EOF", err)
	}

	// A stream ending mid-frame is ErrTruncated, not a silent EOF.
	fr = frameReader{r: bytes.NewReader(stream[:len(stream)-1]), maxPayload: 1 << 20}
	var err error
	for err == nil {
		_, _, err = fr.next()
	}
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-frame end err = %v, want ErrTruncated", err)
	}
}

// FuzzFrameDecode hammers the frame decoder (and, for the binary
// request/reply types, the payload decoders behind it) with corrupt
// input: it must return typed errors, never panic, and never trust a
// corrupt length claim.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, MsgPredict, 1, appendPredictReq(nil, "m", "SELECT 1", 250)))
	f.Add(AppendFrame(nil, MsgPredictBatch, 2, appendPredictBatchReq(nil, "m", []string{"a", "b"}, 0)))
	pr := testPrediction()
	f.Add(AppendFrame(nil, MsgPredictReply, 3, appendPredictReply(nil, &pr)))
	f.Add(AppendFrame(nil, MsgError, 4, appendErrorReply(nil, 429, 1, "queue full")))
	f.Add([]byte("RPW\x01garbage"))
	evil := AppendFrame(nil, MsgPredict, 5, nil)
	binary.LittleEndian.PutUint32(evil[16:], 0xFFFFFFFF)
	f.Add(evil)

	intern := func(b []byte) string { return string(b) }
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, rest, err := DecodeFrame(data, 1<<16)
		if err != nil {
			for _, want := range []error{ErrFormat, ErrVersion, ErrTooLarge, ErrTruncated} {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("untyped decode error %v", err)
		}
		if h.Len > 1<<16 || h.Len != len(payload) || len(rest) != len(data)-HeaderSize-h.Len {
			t.Fatalf("inconsistent decode: %+v payload %d rest %d", h, len(payload), len(rest))
		}
		// Re-encoding a valid frame must reproduce the input bytes.
		re := AppendFrame(nil, h.Type, h.ID, payload)
		if !bytes.Equal(re, data[:HeaderSize+h.Len]) {
			t.Fatal("re-encoded frame differs from input")
		}
		// The payload decoders must hold the same never-panic contract.
		switch h.Type {
		case MsgPredict:
			decodePredictReq(payload)
		case MsgPredictBatch:
			decodePredictBatchReq(payload, nil)
		case MsgPredictReply:
			var dst service.Prediction
			decodePredictReply(payload, &dst, nil, intern)
		case MsgPredictBatchReply:
			decodePredictBatchReply(payload, intern)
		case MsgError:
			decodeErrorReply(payload)
		}
	})
}
