package workload

import (
	"sort"
	"strings"

	"repro/internal/sqllex"
)

// Template normalizes a statement to its template: word tokens with
// numeric and string constants collapsed (bots submit "the same query
// template but with different constants", Section 4.1). Two statements
// with the same template differ only in constants.
func Template(stmt string) string {
	return strings.Join(sqllex.Words(stmt), " ")
}

// Compress reduces a workload to at most maxItems items while
// preserving template diversity — the workload-compression extension
// the paper points to (Section 8, citing Chaudhuri et al.). Items are
// grouped by template; representatives are taken round-robin across
// templates (largest templates first), so every template keeps at
// least one exemplar before any template keeps two.
func Compress(items []Item, maxItems int) []Item {
	if maxItems <= 0 || len(items) <= maxItems {
		return append([]Item(nil), items...)
	}
	type group struct {
		first int
		items []Item
	}
	byTemplate := map[string]*group{}
	var order []string
	for i, item := range items {
		key := Template(item.Statement)
		g, ok := byTemplate[key]
		if !ok {
			g = &group{first: i}
			byTemplate[key] = g
			order = append(order, key)
		}
		g.items = append(g.items, item)
	}
	sort.SliceStable(order, func(i, j int) bool {
		gi, gj := byTemplate[order[i]], byTemplate[order[j]]
		if len(gi.items) != len(gj.items) {
			return len(gi.items) > len(gj.items)
		}
		return gi.first < gj.first
	})
	out := make([]Item, 0, maxItems)
	for round := 0; len(out) < maxItems; round++ {
		took := false
		for _, key := range order {
			g := byTemplate[key]
			if round < len(g.items) {
				out = append(out, g.items[round])
				took = true
				if len(out) == maxItems {
					return out
				}
			}
		}
		if !took {
			break
		}
	}
	return out
}
