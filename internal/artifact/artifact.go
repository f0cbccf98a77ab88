// Package artifact defines the durable on-disk representation of a
// trained model: a versioned, deterministic, checksummed binary format
// for core.Model snapshots.
//
// A model registry that survives process restarts (service.Service
// over a Store) needs a byte representation whose decode is exact —
// the paper's models are compared on bit-level prediction agreement
// between direct and served paths, and a warm-booted server must keep
// that guarantee across restarts. The format therefore stores raw
// IEEE-754 bit patterns for every weight (no text round-trip), the
// full encoder vocabulary in token-id order, and the architecture
// configuration, so Decode(Encode(m)) predicts bit-identically to m.
//
// Layout (all integers little-endian):
//
//	magic "REPROMDL" | u32 format version | body | u64 CRC-64/ECMA
//
// The body is a fixed field sequence (metadata, architecture config,
// vocabulary, weight tensors) with length-prefixed strings and
// arrays; encoding the same model twice yields identical bytes. The
// trailing checksum covers everything before it. Decoding validates
// magic, version, and checksum before parsing, bounds-checks every
// read, and re-validates the decoded state against the architecture's
// canonical parameter shapes (core.RestoreState), so truncated,
// corrupted, or adversarial inputs fail with a typed error — never a
// panic or an unbounded allocation.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"

	"repro/internal/core"
	"repro/internal/lebin"
	"repro/internal/nn"
)

// FormatVersion is the current artifact format version. Decoders
// reject artifacts from unknown (newer or retired) versions with
// ErrVersion rather than guessing at their layout.
const FormatVersion = 1

// magic identifies a model artifact file.
const magic = "REPROMDL"

// Typed decode failures. All are wrapped with context; match with
// errors.Is.
var (
	// ErrFormat is returned for data that is not a model artifact at
	// all (bad magic).
	ErrFormat = errors.New("artifact: not a model artifact")
	// ErrVersion is returned for artifacts with an unknown format
	// version.
	ErrVersion = errors.New("artifact: unsupported format version")
	// ErrTruncated is returned when the data ends mid-field.
	ErrTruncated = errors.New("artifact: truncated")
	// ErrChecksum is returned when the trailing CRC does not match the
	// content.
	ErrChecksum = errors.New("artifact: checksum mismatch")
)

// archKind tags the architecture section.
const (
	archCNN  byte = 1
	archLSTM byte = 2
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Encode serializes a trained neural model (ccnn, wcnn, clstm, wlstm)
// into the artifact format. Encoding is deterministic: the same model
// always yields the same bytes. Baseline and TF-IDF models are not
// serializable and return an error.
func Encode(m *core.Model) ([]byte, error) {
	st, err := m.ExportState()
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(magic), FormatVersion)
	b = lebin.AppendString32(b, st.Name)
	b = le.AppendUint32(b, uint32(st.Task))
	b = le.AppendUint32(b, uint32(st.Version))
	b = le.AppendUint64(b, uint64(st.V))
	b = le.AppendUint64(b, uint64(st.P))
	b = lebin.AppendF64(b, st.LogMin)
	b = le.AppendUint32(b, uint32(st.MaxLen))
	b = le.AppendUint64(b, uint64(st.Seed))
	switch {
	case st.CNN != nil:
		cfg := st.CNN
		b = append(b, archCNN)
		b = le.AppendUint64(b, uint64(cfg.Vocab))
		b = le.AppendUint32(b, uint32(cfg.Embed))
		b = le.AppendUint32(b, uint32(cfg.Kernels))
		b = le.AppendUint32(b, uint32(cfg.Outputs))
		b = lebin.AppendF64(b, cfg.Dropout)
		b = le.AppendUint32(b, uint32(len(cfg.Widths)))
		for _, w := range cfg.Widths {
			b = le.AppendUint32(b, uint32(w))
		}
	case st.LSTM != nil:
		cfg := st.LSTM
		b = append(b, archLSTM)
		b = le.AppendUint64(b, uint64(cfg.Vocab))
		b = le.AppendUint32(b, uint32(cfg.Embed))
		b = le.AppendUint32(b, uint32(cfg.Hidden))
		b = le.AppendUint32(b, uint32(cfg.Layers))
		b = le.AppendUint32(b, uint32(cfg.Outputs))
	default:
		return nil, fmt.Errorf("artifact: encode %q: state carries no architecture config", st.Name)
	}
	b = le.AppendUint64(b, uint64(len(st.Vocab)))
	for _, tok := range st.Vocab {
		b = lebin.AppendString32(b, tok)
	}
	b = le.AppendUint32(b, uint32(len(st.Params)))
	for _, p := range st.Params {
		b = lebin.AppendString32(b, p.Name)
		b = le.AppendUint64(b, uint64(len(p.W)))
		for _, v := range p.W {
			b = lebin.AppendF64(b, v)
		}
	}
	return le.AppendUint64(b, crc64.Checksum(b, crcTable)), nil
}

// Decode parses an artifact back into a ready-to-predict model whose
// predictions are bit-identical to the encoded snapshot's. It returns
// ErrFormat, ErrVersion, ErrTruncated, or ErrChecksum (wrapped, match
// with errors.Is) for invalid data, and never panics on any input.
func Decode(data []byte) (*core.Model, error) {
	st, version, err := decodeState(data)
	if err != nil {
		return nil, err
	}
	m, err := core.RestoreState(st)
	if err != nil {
		return nil, fmt.Errorf("artifact: decode (format v%d): %w", version, err)
	}
	return m, nil
}

// decodeState parses and structurally validates the byte format,
// returning the snapshot state and the artifact's format version.
func decodeState(data []byte) (*core.SnapshotState, uint32, error) {
	if len(data) < len(magic) {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, 0, ErrFormat
	}
	// len(magic) + version + checksum is the smallest conceivable file.
	if len(data) < len(magic)+4+8 {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(data))
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	if version != FormatVersion {
		return nil, 0, fmt.Errorf("%w: %d (decoder supports %d)", ErrVersion, version, FormatVersion)
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(trailer) {
		return nil, 0, ErrChecksum
	}
	d := lebin.NewReader(body[len(magic)+4:], ErrTruncated)
	st := &core.SnapshotState{}
	st.Name = string(d.Bytes32())
	st.Task = core.Task(d.U32())
	st.Version = int(d.U32())
	st.V = size(&d)
	st.P = size(&d)
	st.LogMin = d.F64()
	st.MaxLen = int(d.U32())
	st.Seed = int64(d.U64())
	switch d.Byte() {
	case archCNN:
		cfg := &nn.CNNConfig{}
		cfg.Vocab = size(&d)
		cfg.Embed = int(d.U32())
		cfg.Kernels = int(d.U32())
		cfg.Outputs = int(d.U32())
		cfg.Dropout = d.F64()
		nWidths := int(d.U32())
		if d.Fits(nWidths, 4) {
			for range nWidths {
				cfg.Widths = append(cfg.Widths, int(d.U32()))
			}
		}
		st.CNN = cfg
	case archLSTM:
		cfg := &nn.LSTMConfig{}
		cfg.Vocab = size(&d)
		cfg.Embed = int(d.U32())
		cfg.Hidden = int(d.U32())
		cfg.Layers = int(d.U32())
		cfg.Outputs = int(d.U32())
		st.LSTM = cfg
	default:
		d.Fail(fmt.Errorf("%w: unknown architecture tag", ErrFormat))
	}
	// Each token costs at least its 4-byte length prefix.
	if nVocab := size(&d); d.Fits(nVocab, 4) {
		st.Vocab = make([]string, 0, nVocab)
		for range nVocab {
			st.Vocab = append(st.Vocab, string(d.Bytes32()))
		}
	}
	// Each parameter costs at least its name and weight-count prefixes.
	if nParams := int(d.U32()); d.Fits(nParams, 4+8) {
		for range nParams {
			var p core.ParamState
			p.Name = string(d.Bytes32())
			n := size(&d)
			if !d.Fits(n, 8) {
				break
			}
			p.W = make([]float64, n)
			for k := range p.W {
				p.W[k] = d.F64()
			}
			st.Params = append(st.Params, p)
		}
	}
	if err := d.Finish(ErrFormat); err != nil {
		return nil, 0, err
	}
	return st, version, nil
}

// size reads a u64 count or dimension. One beyond int32 could never be
// an honest size, so it fails like a truncation.
func size(d *lebin.Reader) int {
	v := d.U64()
	if v > math.MaxInt32 {
		d.Fail(ErrTruncated)
		return 0
	}
	return int(v)
}
