package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// Pos is a replay position: a segment sequence number and a byte
// offset within it. The zero value means "the oldest record still
// retained". Positions are JSON-serializable so consumers can persist
// their progress.
type Pos struct {
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// Reader replays records from a WAL directory, starting at any
// position and crossing segment boundaries. Next returns io.EOF at the
// live tail — the log may still grow, so a tailing consumer polls.
//
// Damage tolerance mirrors the writer's recovery split: on the live
// (newest) segment any undecodable tail is treated as an append still
// in flight and reported as io.EOF; on a sealed segment it is damage —
// the remainder of the segment is skipped (counted in Skipped) and
// reading continues at the next segment. A segment pruned by retention
// before the reader reached it is skipped the same way.
type Reader struct {
	dir string
	pos Pos

	f    *os.File
	fSeq uint64

	lenBuf [4]byte
	buf    []byte

	skippedSegments uint64
	skippedBytes    int64
}

// OpenReader creates a reader over the WAL in dir positioned at pos
// (the zero Pos starts at the oldest retained record). The directory
// need not exist yet; Next reports io.EOF until it does.
func OpenReader(dir string, pos Pos) *Reader {
	return &Reader{dir: dir, pos: pos}
}

// Pos returns the reader's current position: the next record returned
// by Next decodes at exactly this position. Safe to persist and pass
// back to OpenReader.
func (r *Reader) Pos() Pos { return r.pos }

// Skipped reports how much damage or pruning the reader has stepped
// over: whole or partial segments bypassed, and the bytes they held.
func (r *Reader) Skipped() (segments uint64, bytes int64) {
	return r.skippedSegments, r.skippedBytes
}

// Close releases the reader's file handle. The reader may be reused;
// the next Next reopens at the current position.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f, r.fSeq = nil, 0
	return err
}

// Next decodes the next record into rec. It returns io.EOF at the live
// tail (poll again later), and a typed decode error only for damage it
// cannot route around (a damaged newest-segment header, which the
// writer's Open repairs).
func (r *Reader) Next(rec *Record) error {
	for {
		if err := r.ensureOpen(); err != nil {
			return err
		}
		ok, err := r.read(rec)
		if ok || err != nil {
			return err
		}
		// No whole valid frame here: an append still in flight on the
		// live segment, damage on a sealed one.
		sealed, next, err := r.sealed()
		if err != nil {
			return err
		}
		if !sealed {
			return io.EOF
		}
		r.skipTo(next)
	}
}

// read decodes the frame at r.pos into rec and steps past it. It
// reports false with a nil error when no whole valid frame is there,
// and an error only when reading the segment fails.
func (r *Reader) read(rec *Record) (bool, error) {
	if n, err := r.f.ReadAt(r.lenBuf[:], r.pos.Off); n < len(r.lenBuf) {
		return false, r.readErr(err)
	}
	bodyLen := binary.LittleEndian.Uint32(r.lenBuf[:])
	if bodyLen < minBody || bodyLen > MaxRecordBytes-frameOverhead {
		return false, nil
	}
	frame := 4 + int(bodyLen) + 4
	if cap(r.buf) < frame {
		r.buf = make([]byte, frame)
	}
	buf := r.buf[:frame]
	if n, err := r.f.ReadAt(buf, r.pos.Off); n < frame {
		return false, r.readErr(err)
	}
	decoded, consumed, err := DecodeRecord(buf)
	if err != nil {
		return false, nil
	}
	*rec = decoded
	r.pos.Off += int64(consumed)
	return true, nil
}

// readErr reports a short read's error, unless it only says the
// segment ended.
func (r *Reader) readErr(err error) error {
	if err == nil || errors.Is(err, io.EOF) {
		return nil
	}
	return fmt.Errorf("ingest: read segment %d: %w", r.fSeq, err)
}

// ensureOpen opens the segment at r.pos, advancing past pruned
// segments, and validates its header. io.EOF means no segment to read
// yet.
func (r *Reader) ensureOpen() error {
	if r.f != nil && r.fSeq == r.pos.Seg {
		return nil
	}
	r.Close()
	seqs, err := Segments(r.dir)
	if err != nil {
		return err
	}
	if len(seqs) == 0 {
		return io.EOF
	}
	seq := r.pos.Seg
	if seq == 0 {
		seq = seqs[0]
	}
	if idx := sort0(seqs, seq); idx < 0 {
		return io.EOF // positioned past the newest segment: wait for it
	} else if seqs[idx] != seq {
		// The positioned segment was pruned (or set aside as damaged):
		// skip forward to the oldest survivor.
		r.skippedSegments++
		seq = seqs[idx]
		r.pos = Pos{Seg: seq, Off: 0}
	} else if r.pos.Seg == 0 {
		r.pos = Pos{Seg: seq, Off: r.pos.Off}
	}
	f, err := os.Open(SegmentPath(r.dir, seq))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return io.EOF // pruned between listing and open; next call skips
		}
		return fmt.Errorf("ingest: open segment %d: %w", seq, err)
	}
	hdr := make([]byte, headerLen)
	n, err := io.ReadFull(f, hdr)
	if err == nil {
		err = checkHeader(hdr)
	}
	if err != nil {
		f.Close()
		// A damaged header on a sealed segment is skipped. A short one
		// on the newest segment is a create still in flight.
		if sealed, next := r.sealedAfter(seqs, seq); sealed {
			r.skippedSegments++
			r.pos = Pos{Seg: next, Off: 0}
			return r.ensureOpen()
		}
		if n < headerLen {
			return io.EOF
		}
		return fmt.Errorf("ingest: segment %d: %w", seq, err)
	}
	r.f, r.fSeq = f, seq
	if r.pos.Off < int64(headerLen) {
		r.pos.Off = int64(headerLen)
	}
	return nil
}

// sealed reports whether the currently open segment is sealed (a newer
// segment exists) and, if so, the next segment to read.
func (r *Reader) sealed() (bool, uint64, error) {
	seqs, err := Segments(r.dir)
	if err != nil {
		return false, 0, err
	}
	ok, next := r.sealedAfter(seqs, r.fSeq)
	return ok, next, nil
}

// sealedAfter finds the first listed segment newer than seq.
func (r *Reader) sealedAfter(seqs []uint64, seq uint64) (bool, uint64) {
	for _, s := range seqs {
		if s > seq {
			return true, s
		}
	}
	return false, 0
}

// skipTo abandons the rest of the current segment as damaged and
// repositions at the start of segment next.
func (r *Reader) skipTo(next uint64) {
	if st, err := r.f.Stat(); err == nil && st.Size() > r.pos.Off {
		r.skippedBytes += st.Size() - r.pos.Off
	}
	r.Close()
	r.pos = Pos{Seg: next, Off: 0}
}

// sort0 returns the index of the smallest element >= seq, or -1.
func sort0(seqs []uint64, seq uint64) int {
	for i, s := range seqs {
		if s >= seq {
			return i
		}
	}
	return -1
}
