package workload

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestTemplateCollapsesConstants(t *testing.T) {
	a := Template("SELECT * FROM PhotoTag WHERE objId=123")
	b := Template("SELECT * FROM PhotoTag WHERE objId=999")
	if a != b {
		t.Fatalf("templates differ: %q vs %q", a, b)
	}
	c := Template("SELECT ra FROM PhotoTag WHERE objId=123")
	if a == c {
		t.Fatal("different statements should have different templates")
	}
}

func TestCompressKeepsTemplateDiversity(t *testing.T) {
	var items []Item
	// 50 instances of template A, 5 of template B, 1 of template C.
	for i := 0; i < 50; i++ {
		items = append(items, Item{Statement: fmt.Sprintf("SELECT a FROM t WHERE x=%d", i)})
	}
	for i := 0; i < 5; i++ {
		items = append(items, Item{Statement: fmt.Sprintf("SELECT b FROM u WHERE y=%d", i)})
	}
	items = append(items, Item{Statement: "SELECT c FROM v"})
	out := Compress(items, 6)
	if len(out) != 6 {
		t.Fatalf("compressed size = %d", len(out))
	}
	templates := map[string]bool{}
	for _, item := range out {
		templates[Template(item.Statement)] = true
	}
	if len(templates) != 3 {
		t.Fatalf("all 3 templates must survive, got %d", len(templates))
	}
}

func TestCompressNoOpWhenSmall(t *testing.T) {
	items := []Item{{Statement: "SELECT 1"}, {Statement: "SELECT 2"}}
	out := Compress(items, 10)
	if len(out) != 2 {
		t.Fatal("small workloads pass through")
	}
	out2 := Compress(items, 0)
	if len(out2) != 2 {
		t.Fatal("maxItems <= 0 passes through")
	}
}

// Property: compression returns exactly min(len, maxItems) items, each
// present in the input.
func TestCompressSizeProperty(t *testing.T) {
	f := func(nRaw, maxRaw uint8) bool {
		n, maxItems := int(nRaw%60), int(maxRaw%30)+1
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Statement: fmt.Sprintf("SELECT c%d FROM t%d", i%7, i%3)}
		}
		out := Compress(items, maxItems)
		want := n
		if maxItems < n {
			want = maxItems
		}
		return len(out) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
