package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"testing"
)

func testRecord(i int) Record {
	return Record{
		Time:      int64(1000 + i),
		Kind:      Kind(i % 2),
		Model:     fmt.Sprintf("model-%d", i%3),
		Statement: fmt.Sprintf("SELECT %d FROM PhotoObj WHERE r < %d", i, i%20),
		Class:     int32(i % 5),
		Value:     float64(i) * 1.5,
	}
}

func appendN(t *testing.T, w *WAL, n, from int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// readAll drains the reader to the live tail.
func readAll(t *testing.T, r *Reader) []Record {
	t.Helper()
	var out []Record
	var rec Record
	for {
		err := r.Next(&rec)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("next after %d records: %v", len(out), err)
		}
		out = append(out, rec)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for i := 0; i < 10; i++ {
		want := testRecord(i)
		buf, err := AppendRecord(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeRecord(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestRecordDecodeTyped(t *testing.T) {
	buf, err := AppendRecord(nil, testRecord(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeRecord(buf[:len(buf)-3]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: got %v", err)
	}
	flip := append([]byte(nil), buf...)
	flip[10] ^= 0x40
	if _, _, err := DecodeRecord(flip); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit flip: got %v", err)
	}
	bad := append([]byte(nil), buf...)
	bad[0], bad[1], bad[2], bad[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeRecord(bad); !errors.Is(err, ErrFormat) {
		t.Fatalf("absurd length: got %v", err)
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 20, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, OpenReader(dir, Pos{}))
	if len(got) != 20 {
		t.Fatalf("read %d records, want 20", len(got))
	}
	for i, rec := range got {
		if rec != testRecord(i) {
			t.Fatalf("record %d: got %+v want %+v", i, rec, testRecord(i))
		}
	}
}

func TestReopenAppendsContinue(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 5, 0)
	w.Close()
	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Stats().RecoveredBytes != 0 {
		t.Fatalf("clean reopen recovered %d bytes", w.Stats().RecoveredBytes)
	}
	appendN(t, w, 5, 5)
	w.Close()
	got := readAll(t, OpenReader(dir, Pos{}))
	if len(got) != 10 {
		t.Fatalf("read %d records, want 10", len(got))
	}
}

func TestRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	w, err := open(dir, Options{}, limits{segmentBytes: 256, maxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 100, 0)
	st := w.Stats()
	if st.Seq < 4 {
		t.Fatalf("expected several rotations, live seq = %d", st.Seq)
	}
	if st.Pruned == 0 {
		t.Fatal("expected retention pruning")
	}
	seqs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) > 3 {
		t.Fatalf("%d segments retained, bound is 3", len(seqs))
	}
	w.Close()

	// A zero-Pos reader starts at the oldest retained record; the tail
	// of the log must come through intact and in order.
	got := readAll(t, OpenReader(dir, Pos{}))
	if len(got) == 0 || len(got) >= 100 {
		t.Fatalf("read %d records; want a pruned middle ground", len(got))
	}
	last := got[len(got)-1]
	if last != testRecord(99) {
		t.Fatalf("tail record: got %+v want %+v", last, testRecord(99))
	}
}

func TestReaderResumeFromPos(t *testing.T) {
	dir := t.TempDir()
	w, err := open(dir, Options{}, limits{segmentBytes: 512, maxSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 10, 0)
	r := OpenReader(dir, Pos{})
	var rec Record
	for i := 0; i < 4; i++ {
		if err := r.Next(&rec); err != nil {
			t.Fatal(err)
		}
	}
	pos := r.Pos()
	r.Close()

	appendN(t, w, 10, 10)
	w.Close()

	got := readAll(t, OpenReader(dir, pos))
	if len(got) != 16 {
		t.Fatalf("resumed read got %d records, want 16", len(got))
	}
	if got[0] != testRecord(4) {
		t.Fatalf("resume point: got %+v want %+v", got[0], testRecord(4))
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 8, 0)
	seq := w.Stats().Seq
	w.Close()

	// Tear the tail mid-record, as a kill mid-append would.
	path := SegmentPath(dir, seq)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	if w.Stats().RecoveredBytes == 0 {
		t.Fatal("expected torn-tail recovery")
	}
	appendN(t, w, 2, 100)
	w.Close()

	got := readAll(t, OpenReader(dir, Pos{}))
	if len(got) != 9 {
		t.Fatalf("read %d records, want 7 intact + 2 new", len(got))
	}
	for i := 0; i < 7; i++ {
		if got[i] != testRecord(i) {
			t.Fatalf("intact prefix record %d damaged: %+v", i, got[i])
		}
	}
	if got[7] != testRecord(100) || got[8] != testRecord(101) {
		t.Fatalf("post-recovery appends wrong: %+v %+v", got[7], got[8])
	}
}

func TestDamagedHeaderSetAside(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 3, 0)
	seq := w.Stats().Seq
	w.Close()

	path := SegmentPath(dir, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over damaged header: %v", err)
	}
	if got := w.Stats().Seq; got != seq+1 {
		t.Fatalf("live seq %d, want fresh segment %d", got, seq+1)
	}
	appendN(t, w, 2, 50)
	w.Close()
	if _, err := os.Stat(path + ".damaged"); err != nil {
		t.Fatalf("damaged segment not set aside: %v", err)
	}
	got := readAll(t, OpenReader(dir, Pos{}))
	if len(got) != 2 || got[0] != testRecord(50) {
		t.Fatalf("post-damage reads: %+v", got)
	}
}

func TestReaderSkipsCorruptSealedSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := open(dir, Options{}, limits{segmentBytes: 512, maxSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 40, 0)
	if w.Stats().Seq < 3 {
		t.Fatalf("need >= 3 segments, got %d", w.Stats().Seq)
	}
	w.Close()

	// Flip a bit mid-way through the SECOND segment (sealed).
	path := SegmentPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := OpenReader(dir, Pos{})
	got := readAll(t, r)
	if len(got) == 0 || len(got) >= 40 {
		t.Fatalf("read %d records; want the undamaged subset", len(got))
	}
	if segs, skippedBytes := r.Skipped(); segs == 0 && skippedBytes == 0 {
		t.Fatal("reader did not report skipped damage")
	}
	// The final record must still come through: damage in segment 2
	// must not block segments 3+.
	if got[len(got)-1] != testRecord(39) {
		t.Fatalf("tail record lost: %+v", got[len(got)-1])
	}
}

func TestReaderTailsLiveAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := OpenReader(dir, Pos{})
	var rec Record
	if err := r.Next(&rec); !errors.Is(err, io.EOF) {
		t.Fatalf("empty log: got %v, want EOF", err)
	}
	appendN(t, w, 3, 0)
	got := readAll(t, r)
	if len(got) != 3 {
		t.Fatalf("tailed %d records, want 3", len(got))
	}
	appendN(t, w, 2, 3)
	got = readAll(t, r)
	if len(got) != 2 || got[0] != testRecord(3) {
		t.Fatalf("second tail: %+v", got)
	}
	w.Close()
}

// segmentRecords decodes every record of segment seq straight from
// its file.
func segmentRecords(t *testing.T, dir string, seq uint64) []Record {
	t.Helper()
	data, err := os.ReadFile(SegmentPath(dir, seq))
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	for rest := data[headerLen:]; len(rest) > 0; {
		rec, n, err := DecodeRecord(rest)
		if err != nil {
			t.Fatalf("segment %d: %v", seq, err)
		}
		out = append(out, rec)
		rest = rest[n:]
	}
	return out
}

func TestReaderResumesPastPrunedSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := open(dir, Options{}, limits{segmentBytes: 512, maxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 80, 0)
	w.Close()
	seqs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if seqs[0] == 1 {
		t.Fatalf("retention pruned nothing: segments %v", seqs)
	}

	// A position saved inside segment 1, before retention deleted it.
	r := OpenReader(dir, Pos{Seg: 1, Off: int64(headerLen)})
	got := readAll(t, r)
	if want := segmentRecords(t, dir, seqs[0]); len(got) == 0 || got[0] != want[0] {
		t.Fatalf("resumed at %+v, want the oldest survivor's first record %+v", got, want[0])
	}
	if want := readAll(t, OpenReader(dir, Pos{})); !slices.Equal(got, want) {
		t.Fatalf("read %d records, a zero-Pos reader reads %d", len(got), len(want))
	}
	if segs, _ := r.Skipped(); segs != 1 {
		t.Fatalf("Skipped() = %d segments, want 1", segs)
	}
}

func TestReaderSkipsSealedSegmentWithDamagedHeader(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"short header", func(b []byte) []byte { return b[:headerLen-1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := open(dir, Options{}, limits{segmentBytes: 512, maxSegments: 8})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 40, 0)
			w.Close()
			seqs, err := Segments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(seqs) < 3 {
				t.Fatalf("need >= 3 segments, got %v", seqs)
			}
			var want []Record
			for _, seq := range seqs {
				if seq != 2 {
					want = append(want, segmentRecords(t, dir, seq)...)
				}
			}

			path := SegmentPath(dir, 2)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}

			r := OpenReader(dir, Pos{})
			if got := readAll(t, r); !slices.Equal(got, want) {
				t.Fatalf("read %d records, want the %d outside segment 2", len(got), len(want))
			}
			if segs, _ := r.Skipped(); segs != 1 {
				t.Fatalf("Skipped() = %d segments, want 1", segs)
			}
		})
	}
}

func TestReaderWaitsOnHalfWrittenFrame(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 2, 0)
	w.Close()
	r := OpenReader(dir, Pos{})
	if got := readAll(t, r); len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	f, err := os.OpenFile(SegmentPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var rec Record
	for i := 2; i < 5; i++ {
		frame, err := AppendRecord(nil, testRecord(i))
		if err != nil {
			t.Fatal(err)
		}
		// Cut inside the length prefix, the body and the CRC.
		cut := []int{2, len(frame) / 2, len(frame) - 1}[i-2]
		if _, err := f.Write(frame[:cut]); err != nil {
			t.Fatal(err)
		}
		pos := r.Pos()
		if err := r.Next(&rec); !errors.Is(err, io.EOF) {
			t.Fatalf("%d of %d bytes written: Next = %v, want io.EOF", cut, len(frame), err)
		}
		if r.Pos() != pos {
			t.Fatalf("a half-written frame moved the reader from %+v to %+v", pos, r.Pos())
		}
		if _, err := f.Write(frame[cut:]); err != nil {
			t.Fatal(err)
		}
		if err := r.Next(&rec); err != nil || rec != testRecord(i) {
			t.Fatalf("completed frame: %+v, %v; want %+v", rec, err, testRecord(i))
		}
	}
	if segs, n := r.Skipped(); segs != 0 || n != 0 {
		t.Fatalf("Skipped() = %d segments, %d bytes; want none", segs, n)
	}
}

func TestAppendZeroAllocWarm(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := testRecord(1)
	for i := 0; i < 4; i++ {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Append allocates %.1f times per record, want 0", allocs)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := AppendRecord(nil, testRecord(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendRecord(nil, testRecord(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("record encoding is not deterministic")
	}
}
