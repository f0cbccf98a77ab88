package lebin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

var (
	errShort  = errors.New("short")
	errFormat = errors.New("format")
)

func TestReader(t *testing.T) {
	fields := AppendString32(AppendString16(AppendString16(AppendF64([]byte{7, 1, 2, 3, 4, 5, 6}, -1.5), "ab"), ""), "xyz")
	cases := []struct {
		name string
		in   []byte
		// read reads from r and renders what it got.
		read func(r *Reader) string
		want string
		err  error // from Finish(errFormat); nil means success
		// noAlloc asserts that read allocates nothing.
		noAlloc bool
	}{
		{"every field", fields, func(r *Reader) string {
			return fmt.Sprintf("%d %d %d %v %q %q %q", r.Byte(), r.U16(), r.U32(), r.F64(), r.Bytes16(), r.Bytes16(), r.Bytes32())
		}, `7 513 100992003 -1.5 "ab" "" "xyz"`, nil, false},
		{"read past the end wraps the short sentinel", []byte{1, 2, 3}, func(r *Reader) string {
			return fmt.Sprint(r.U32())
		}, "0", errShort, false},
		{"every read after a failure returns zero", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, func(r *Reader) string {
			return fmt.Sprint(r.U32(), r.U64(), r.Byte(), r.U16(), r.Bytes16() == nil, r.Remaining())
		}, "67305985 0 0 0 true 5", errShort, false},
		{"Fail keeps the first error", []byte{1}, func(r *Reader) string {
			r.Fail(errFormat)
			r.Fail(errShort)
			return fmt.Sprint(r.Byte())
		}, "0", errFormat, false},
		{"Fits refuses a count the input cannot hold", binary.LittleEndian.AppendUint32(nil, 3), func(r *Reader) string {
			n := int(r.U32())
			return fmt.Sprint(r.Fits(n, 1), r.Fits(0, 1))
		}, "false false", errShort, false},
		{"Fits takes a count the input holds", []byte{2, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9}, func(r *Reader) string {
			n := int(r.U32())
			return fmt.Sprint(r.Fits(n, 4), r.Fits(n, 5), r.Fits(-1, 1))
		}, "true false false", errShort, false},
		{"Finish reports trailing bytes as the format error", []byte{1, 2}, func(r *Reader) string {
			return fmt.Sprint(r.Byte())
		}, "1", errFormat, false},
		{"4 GiB Bytes32 claim", []byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, func(r *Reader) string {
			if r.Bytes32() != nil {
				return "view"
			}
			return "nil"
		}, "nil", errShort, true},
	}
	for _, tc := range cases {
		r := NewReader(tc.in, errShort)
		if got := tc.read(&r); got != tc.want {
			t.Errorf("%s: read %q, want %q", tc.name, got, tc.want)
		}
		err := r.Finish(errFormat)
		if !errors.Is(err, tc.err) {
			t.Errorf("%s: Finish = %v, want %v", tc.name, err, tc.err)
		}
		if tc.err == errShort && errors.Is(err, errFormat) {
			t.Errorf("%s: a short read also matches the format error: %v", tc.name, err)
		}
		if tc.noAlloc {
			// r escapes through the indirect call once, before the runs.
			if allocs := testing.AllocsPerRun(100, func() {
				r = NewReader(tc.in, errShort)
				tc.read(&r)
			}); allocs != 0 {
				t.Errorf("%s: %.1f allocs, want 0", tc.name, allocs)
			}
		}
	}
}
