package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestByCountOrdersByCountThenVerb(t *testing.T) {
	counts := map[string]int{"EXECUTE": 3, "SELECT": 90, "INSERT": 3, "DROP": 1, "CREATE": 3}
	want := []string{"SELECT", "CREATE", "EXECUTE", "INSERT", "DROP"}
	for range 20 { // map order varies between iterations
		if got := byCount(counts); !slices.Equal(got, want) {
			t.Fatalf("byCount = %v, want %v", got, want)
		}
	}
}

func TestWriteTSV(t *testing.T) {
	w := &workload.Workload{Items: []workload.Item{{Statement: "SELECT 1\tFROM t\nWHERE x", Repeats: 2}}}
	path := filepath.Join(t.TempDir(), "w.tsv")
	if err := writeTSV(path, w); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "SELECT 1 FROM t WHERE x\t") {
		t.Fatalf("TSV = %q", blob)
	}
	if err := writeTSV(filepath.Join(t.TempDir(), "missing", "w.tsv"), w); err == nil {
		t.Fatal("writeTSV into a missing directory succeeded")
	}
}
