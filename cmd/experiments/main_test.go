package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParseInts checks the selection lists: blanks are skipped, and a
// malformed entry is an error naming it rather than silently dropped.
func TestParseInts(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"2", []int{2}},
		{"2,3", []int{2, 3}},
		{" 4 , ,13,", []int{4, 13}},
	} {
		got, err := parseInts("table", c.in)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("parseInts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"2,x", "x", "2;3", "1.5"} {
		got, err := parseInts("figure", in)
		if err == nil || !strings.Contains(err.Error(), "-figure") {
			t.Errorf("parseInts(%q) = %v, %v; want an error naming -figure", in, got, err)
		}
	}
}
