// Package ingest is the serving layer's durable request log: an
// append-only, segmented, checksummed WAL of served statements and
// their observed outcomes — the data source for the online fine-tune
// pipeline (internal/online).
//
// The paper's models are trained once on a fixed corpus, but a serving
// system sees the workload drift. Closing that loop needs the traffic
// itself, captured durably and cheaply: the WAL records a sample of
// served predictions and every reported ground-truth outcome, and a
// reader replays them from any position. Records survive exactly the
// failures the rest of the store layer is hardened against — torn
// tails from a kill mid-append are truncated on reopen, a corrupted
// record fails its CRC with a typed error instead of poisoning the
// trainer, and sealed segments rotate and age out under a retention
// bound.
//
// On-disk layout (all integers little-endian). Each segment file
// ("wal-<seq>.log") starts with a header:
//
//	magic "REPROWAL" | u32 format version
//
// followed by framed records:
//
//	u32 body length | body | u32 CRC-32C(body)
//
// where the body is:
//
//	u8 kind | i64 unix-nanos | i32 class | f64 value |
//	u16 model length | model | u32 statement length | statement
//
// Append is safe for concurrent use and allocation-free once warm (the
// encode buffer is reused), so the predict hot path can sample into
// the log without breaking its 0-alloc contract. Decoding validates
// lengths and checksums before allocating and fails with a typed error
// — never a panic.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/lebin"
)

// FormatVersion is the current segment format version. Readers reject
// segments from unknown versions with ErrVersion rather than guessing
// at their layout.
const FormatVersion = 1

// segMagic identifies a WAL segment file.
const segMagic = "REPROWAL"

// headerLen is the fixed segment header size: magic + format version.
const headerLen = len(segMagic) + 4

// frameOverhead is the per-record framing cost: length prefix + CRC.
const frameOverhead = 8

// MaxRecordBytes bounds one framed record. Decoders reject larger
// length prefixes before allocating, so a corrupted length cannot
// trigger an unbounded allocation.
const MaxRecordBytes = 1 << 20

// minBody is the smallest legal body: fixed fields plus two empty
// strings.
const minBody = 1 + 8 + 4 + 8 + 2 + 4

// Typed decode failures, mirroring internal/artifact. All are wrapped
// with context; match with errors.Is.
var (
	// ErrFormat is returned for data that is not a WAL segment or
	// record at all (bad magic, impossible lengths).
	ErrFormat = errors.New("ingest: not a wal record")
	// ErrVersion is returned for segments with an unknown format
	// version.
	ErrVersion = errors.New("ingest: unsupported wal version")
	// ErrTruncated is returned when the data ends mid-record.
	ErrTruncated = errors.New("ingest: truncated record")
	// ErrChecksum is returned when a record's CRC does not match its
	// content.
	ErrChecksum = errors.New("ingest: record checksum mismatch")
	// ErrClosed is returned for appends after Close.
	ErrClosed = errors.New("ingest: wal closed")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind distinguishes the two record sources.
type Kind uint8

const (
	// Predicted records carry the served model's own output, sampled
	// off the predict path: Class/Value hold what the model answered,
	// not ground truth. They feed replay, not training.
	Predicted Kind = iota
	// Observed records carry a ground-truth outcome reported after the
	// statement ran (Service.Observe, POST /v1/ingest): the labels the
	// online trainer fine-tunes and gates on.
	Observed
)

func (k Kind) String() string {
	switch k {
	case Predicted:
		return "predicted"
	case Observed:
		return "observed"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one logged statement with its label or outcome. For
// classification tasks the label rides in Class; for regression tasks
// in Value (raw units). A Predicted record carries the model's own
// answer in the same fields.
type Record struct {
	// Time is the append wall-clock time in Unix nanoseconds.
	Time int64
	// Kind says whether Class/Value are the model's answer (Predicted)
	// or ground truth (Observed).
	Kind Kind
	// Model is the registry name the statement was served under.
	Model string
	// Statement is the SQL text.
	Statement string
	// Class is the classification label (or predicted class).
	Class int32
	// Value is the regression label in raw units (or, for Predicted
	// records, the model's log-space output).
	Value float64
}

// AppendRecord encodes rec as one framed record onto dst and returns
// the extended slice. Encoding the same record twice yields identical
// bytes.
func AppendRecord(dst []byte, rec Record) ([]byte, error) {
	if len(rec.Model) > math.MaxUint16 {
		return dst, fmt.Errorf("ingest: model name %d bytes exceeds %d", len(rec.Model), math.MaxUint16)
	}
	bodyLen := minBody + len(rec.Model) + len(rec.Statement)
	if bodyLen+frameOverhead > MaxRecordBytes {
		return dst, fmt.Errorf("ingest: record %d bytes exceeds %d", bodyLen+frameOverhead, MaxRecordBytes)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(bodyLen))
	start := len(dst)
	dst = append(dst, byte(rec.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Time))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Class))
	dst = lebin.AppendF64(dst, rec.Value)
	dst = lebin.AppendString16(dst, rec.Model)
	dst = lebin.AppendString32(dst, rec.Statement)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// DecodeRecord decodes one framed record from the front of b,
// returning the record and the number of bytes consumed. Failures are
// typed: ErrTruncated when b ends mid-record, ErrChecksum when the CRC
// does not match, ErrFormat when lengths are impossible.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < 4 {
		return Record{}, 0, fmt.Errorf("%w: %d bytes, need 4 for length prefix", ErrTruncated, len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n < minBody || n > MaxRecordBytes-frameOverhead {
		return Record{}, 0, fmt.Errorf("%w: body length %d outside [%d, %d]", ErrFormat, n, minBody, MaxRecordBytes-frameOverhead)
	}
	if len(b) < 4+n+4 {
		return Record{}, 0, fmt.Errorf("%w: %d bytes, record needs %d", ErrTruncated, len(b), 4+n+4)
	}
	body := b[4 : 4+n]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(b[4+n:]); got != want {
		return Record{}, 0, fmt.Errorf("%w: computed %08x, stored %08x", ErrChecksum, got, want)
	}
	rec, err := decodeBody(body)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, 4 + n + 4, nil
}

// decodeBody parses a CRC-validated record body. Internal length
// fields disagreeing with the body length are ErrFormat: the checksum
// matched, so the record was written malformed, not damaged.
func decodeBody(body []byte) (Record, error) {
	d := lebin.NewReader(body, ErrFormat)
	rec := Record{
		Kind:  Kind(d.Byte()),
		Time:  int64(d.U64()),
		Class: int32(d.U32()),
		Value: d.F64(),
	}
	if rec.Kind > Observed {
		return Record{}, fmt.Errorf("%w: unknown record kind %d", ErrFormat, rec.Kind)
	}
	rec.Model = string(d.Bytes16())
	rec.Statement = string(d.Bytes32())
	if err := d.Finish(ErrFormat); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// Options tunes a WAL. The zero value is usable. Segment size and
// retention are fixed: the live segment rotates once it reaches 1 MiB,
// and after a rotation the oldest sealed segments beyond 8 are deleted.
type Options struct {
	// Sync fsyncs after every append. Off by default: the log is a
	// training data feed, not a commitment ledger — losing the tail of
	// unsynced records on a crash costs training examples, not
	// correctness (and the torn-tail recovery cleans up the break).
	Sync bool
}

// limits bound the segments one WAL writes and keeps: the live segment
// rotates once it reaches segmentBytes, and after a rotation the oldest
// sealed segments beyond maxSegments are deleted.
type limits struct {
	segmentBytes int64
	maxSegments  int
}

// WAL is the append side of the log: one live segment file, rotated
// and pruned under the retention bound. Safe for concurrent use;
// appends are allocation-free once warm.
type WAL struct {
	dir    string
	opts   Options
	limits limits

	appended atomic.Uint64
	pruned   atomic.Uint64

	mu     sync.Mutex
	f      *os.File
	seq    uint64
	size   int64
	buf    []byte
	closed bool

	// recovered is the torn-tail byte count truncated at Open.
	recovered int64
}

// Stats is a point-in-time WAL summary.
type Stats struct {
	// Appended counts records appended by this process.
	Appended uint64 `json:"appended"`
	// Seq is the live segment's sequence number.
	Seq uint64 `json:"seq"`
	// Bytes is the live segment's current size.
	Bytes int64 `json:"bytes"`
	// Pruned counts segments deleted by retention.
	Pruned uint64 `json:"pruned"`
	// RecoveredBytes is the torn tail truncated when the WAL was
	// opened (0 after a clean shutdown).
	RecoveredBytes int64 `json:"recovered_bytes,omitempty"`
}

// Open opens (or creates) the WAL in dir. If the newest segment ends
// in a torn record — a kill mid-append — the tail is truncated back to
// the last intact record and appending resumes there; a newest segment
// whose header is damaged is set aside with a ".damaged" suffix and a
// fresh segment is started, so a damaged log degrades instead of
// refusing to open.
func Open(dir string, opts Options) (*WAL, error) {
	return open(dir, opts, limits{segmentBytes: 1 << 20, maxSegments: 8})
}

// open is Open under the given segment bounds.
func open(dir string, opts Options, lim limits) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: open %s: %w", dir, err)
	}
	w := &WAL{dir: dir, opts: opts, limits: lim}
	seqs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		if err := w.create(1); err != nil {
			return nil, err
		}
		return w, nil
	}
	seq := seqs[len(seqs)-1]
	if err := w.recoverTail(seq); err != nil {
		return nil, err
	}
	return w, nil
}

// segmentName formats one segment's filename.
func segmentName(seq uint64) string {
	return fmt.Sprintf("wal-%08d.log", seq)
}

// SegmentPath returns the path of segment seq inside dir.
func SegmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, segmentName(seq))
}

// Segments lists the segment sequence numbers present in dir, sorted
// ascending. Files that are not WAL segments are ignored.
func Segments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("ingest: list %s: %w", dir, err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "wal-%d.log", &seq); err != nil || seq == 0 {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// create starts a fresh segment seq and makes it the live one.
func (w *WAL) create(seq uint64) error {
	f, err := os.OpenFile(SegmentPath(w.dir, seq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: create segment %d: %w", seq, err)
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, FormatVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("ingest: write segment %d header: %w", seq, err)
	}
	w.f, w.seq, w.size = f, seq, int64(headerLen)
	return nil
}

// recoverTail reopens the newest segment, truncating any torn record
// tail. A segment too damaged to have a valid header is renamed aside
// (".damaged") and a fresh segment replaces it.
func (w *WAL) recoverTail(seq uint64) error {
	path := SegmentPath(w.dir, seq)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("ingest: recover segment %d: %w", seq, err)
	}
	if err := checkHeader(data); err != nil {
		// The header itself is gone: nothing in this file is trustworthy.
		// Park it for forensics and start over one sequence later.
		if rerr := os.Rename(path, path+".damaged"); rerr != nil {
			return fmt.Errorf("ingest: segment %d header damaged (%v) and rename failed: %w", seq, err, rerr)
		}
		w.recovered = int64(len(data))
		return w.create(seq + 1)
	}
	good := int64(headerLen)
	rest := data[headerLen:]
	for len(rest) > 0 {
		_, n, err := DecodeRecord(rest)
		if err != nil {
			break // torn or damaged tail: everything before it is intact
		}
		good += int64(n)
		rest = rest[n:]
	}
	w.recovered = int64(len(data)) - good
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: recover segment %d: %w", seq, err)
	}
	if w.recovered > 0 {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("ingest: truncate torn tail of segment %d: %w", seq, err)
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return fmt.Errorf("ingest: recover segment %d: %w", seq, err)
	}
	w.f, w.seq, w.size = f, seq, good
	return nil
}

// checkHeader validates a segment header.
func checkHeader(data []byte) error {
	if len(data) < headerLen {
		return fmt.Errorf("%w: %d bytes, header needs %d", ErrTruncated, len(data), headerLen)
	}
	if string(data[:len(segMagic)]) != segMagic {
		return fmt.Errorf("%w: bad segment magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint32(data[len(segMagic):]); v != FormatVersion {
		return fmt.Errorf("%w: segment version %d, this build reads %d", ErrVersion, v, FormatVersion)
	}
	return nil
}

// Append writes one record to the live segment, rotating (and pruning
// old segments) when the segment reaches its size bound. Warm appends
// allocate nothing: the frame is encoded into a reused buffer and
// written in one call.
func (w *WAL) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	buf, err := AppendRecord(w.buf[:0], rec)
	w.buf = buf
	if err != nil {
		return err
	}
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("ingest: append: %w", err)
	}
	w.size += int64(len(buf))
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("ingest: append: %w", err)
		}
	}
	w.appended.Add(1)
	if w.size >= w.limits.segmentBytes {
		return w.rotate()
	}
	return nil
}

// rotate seals the live segment, starts the next, and enforces
// retention. Caller holds w.mu.
func (w *WAL) rotate() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ingest: rotate: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("ingest: rotate: %w", err)
	}
	if err := w.create(w.seq + 1); err != nil {
		return err
	}
	w.prune()
	return nil
}

// prune deletes the oldest sealed segments beyond the retention bound.
// Best effort: a failed delete is retried at the next rotation. Caller
// holds w.mu.
func (w *WAL) prune() {
	seqs, err := Segments(w.dir)
	if err != nil {
		return
	}
	for len(seqs) > w.limits.maxSegments && seqs[0] != w.seq {
		if os.Remove(SegmentPath(w.dir, seqs[0])) == nil {
			w.pruned.Add(1)
		}
		seqs = seqs[1:]
	}
}

// Sync flushes the live segment to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.f.Sync()
}

// Close syncs and closes the live segment. Further appends return
// ErrClosed. Idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("ingest: close: %w", err)
	}
	return w.f.Close()
}

// Dir returns the WAL's directory.
func (w *WAL) Dir() string { return w.dir }

// Stats snapshots the WAL's counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	seq, size := w.seq, w.size
	w.mu.Unlock()
	return Stats{
		Appended:       w.appended.Load(),
		Seq:            seq,
		Bytes:          size,
		Pruned:         w.pruned.Load(),
		RecoveredBytes: w.recovered,
	}
}
