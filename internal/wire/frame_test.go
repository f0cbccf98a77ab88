package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/lebin"
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
	buf := AppendFrame(nil, MsgControl, 1, nil) // prior frame in the buffer
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
		{"version 1", corrupt(func(b []byte) { b[4] = 1 }), ErrVersion},
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
	payload := appendPredictReply(nil, prs)
	got, _, err := decodePredictReply(payload, nil, nil, intern)
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
		if allocs := testing.AllocsPerRun(100, func() { decodePredictReply(payload, nil, nil, intern) }); allocs != 2 {
			t.Errorf("decoding a 16-row reply: %v allocs, want 2 (predictions, row slab)", allocs)
		}
	}

	prs[5].Probs = []float64{1, 2, 3, 4, 5}
	prs[9].Probs = nil
	got, _, err = decodePredictReply(appendPredictReply(nil, prs), nil, nil, intern)
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
	evil := lebin.AppendString16(nil, "m")
	evil = binary.LittleEndian.AppendUint32(evil, 3) // version
	evil = append(evil, kindClassification)
	evil = binary.LittleEndian.AppendUint32(evil, 16000)
	evil = binary.LittleEndian.AppendUint32(evil, 0)    // class
	evil = binary.LittleEndian.AppendUint32(evil, 8000) // row length
	evil = append(evil, make([]byte, 64<<10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err = decodePredictReply(evil, nil, nil, intern)
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

// FuzzFrameDecode hammers the frame decoder with corrupt input: it
// must return typed errors, never panic, and never trust a corrupt
// length claim. FuzzPayloadDecode does the same for what frames carry.
func FuzzFrameDecode(f *testing.F) {
	for _, seed := range payloadSeeds() {
		f.Add(AppendFrame(nil, seed.t, 1, seed.p))
	}
	f.Add([]byte("RPW\x01garbage"))
	evil := AppendFrame(nil, MsgPredict, 5, nil)
	binary.LittleEndian.PutUint32(evil[16:], 0xFFFFFFFF)
	f.Add(evil)

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
	})
}

// payloadSeeds are encoder output for each payload shape: one
// statement, a batch of 16, a regression reply, a classification
// reply, and an error.
func payloadSeeds() []struct {
	t MsgType
	p []byte
} {
	batch := make([]string, 16)
	for i := range batch {
		batch[i] = fmt.Sprintf("SELECT %d FROM t", i)
	}
	reg := service.Prediction{Name: "cpu", Version: 2, Log: -1.5, Raw: 0.03}
	return []struct {
		t MsgType
		p []byte
	}{
		{MsgPredict, appendPredictReq(nil, "m", []string{"SELECT 1"}, 250)},
		{MsgPredict, appendPredictReq(nil, "m", batch, 0)},
		{MsgPredictReply, appendPredictReply(nil, []service.Prediction{reg})},
		{MsgPredictReply, appendPredictReply(nil, []service.Prediction{testPrediction(), testPrediction()})},
		{MsgError, appendErrorReply(nil, 429, 1, "queue full")},
		{MsgControl, appendControlReq(nil, service.OpStats, []byte(`{"model":"m"}`))},
	}
}

// FuzzPayloadDecode runs arbitrary bytes through every payload decoder:
// none may panic, none may allocate more than the payload can back,
// and whatever decodes must re-encode to the same bytes.
func FuzzPayloadDecode(f *testing.F) {
	for _, seed := range payloadSeeds() {
		f.Add(seed.p)
	}
	intern := func(b []byte) string { return string(b) }
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		model, dl, stmts, reqErr := decodePredictReq(p, nil)
		preds, _, replyErr := decodePredictReply(p, nil, nil, intern)
		status, retry, msg, errErr := decodeErrorReply(p)
		op, body, ctlErr := decodeControlReq(p)
		runtime.ReadMemStats(&after)
		// Statement views and predictions are sized by counts the payload
		// backs at 4 bytes an item, the message is copied: tens of bytes
		// per payload byte, never a count times a row length.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(256*len(p))+64<<10 {
			t.Fatalf("decoding a %d-byte payload allocated %d bytes", len(p), grew)
		}

		var re [][]byte
		if reqErr == nil {
			strs := make([]string, len(stmts))
			for i, s := range stmts {
				strs[i] = string(s)
			}
			re = append(re, appendPredictReq(nil, string(model), strs, dl))
		}
		if replyErr == nil {
			re = append(re, appendPredictReply(nil, preds))
		}
		if errErr == nil {
			re = append(re, appendErrorReply(nil, status, retry, msg))
		}
		if ctlErr == nil {
			re = append(re, appendControlReq(nil, op, body))
		}
		for _, b := range re {
			if !bytes.Equal(b, p) {
				t.Fatalf("re-encoded payload differs from input\nin:  %x\nout: %x", p, b)
			}
		}
		for _, err := range []error{reqErr, replyErr, errErr, ctlErr} {
			if err != nil && !errors.Is(err, ErrFormat) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped payload error %v", err)
			}
		}
	})
}
