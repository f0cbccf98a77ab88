package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/simdb"
	"repro/internal/sqlparse"
)

func entry(stmt string, session int, class SessionClass, res simdb.Result) RawEntry {
	return RawEntry{Statement: stmt, SessionID: session, Class: class, Result: res}
}

func TestExtractSamplesOnePerSession(t *testing.T) {
	log := []RawEntry{
		entry("q1", 0, Bot, simdb.Result{Error: simdb.Success, AnswerSize: 1}),
		entry("q2", 0, Bot, simdb.Result{Error: simdb.Success, AnswerSize: 2}),
		entry("q3", 1, Browser, simdb.Result{Error: simdb.Success, AnswerSize: 3}),
	}
	w := Extract(log, rand.New(rand.NewSource(1)))
	if len(w.Items) != 2 {
		t.Fatalf("items = %d, want 2 (one per session)", len(w.Items))
	}
}

func TestDedupAggregatesNumericLabels(t *testing.T) {
	sampled := []RawEntry{
		entry("q", 0, Bot, simdb.Result{Error: simdb.Success, AnswerSize: 10, CPUTime: 1.0}),
		entry("q", 1, Bot, simdb.Result{Error: simdb.Success, AnswerSize: 20, CPUTime: 3.0}),
	}
	w := Dedup(sampled)
	if len(w.Items) != 1 {
		t.Fatalf("items = %d, want 1", len(w.Items))
	}
	item := w.Items[0]
	if item.AnswerSize != 15 || item.CPUTime != 2 {
		t.Fatalf("aggregated labels = %+v, want averages 15/2", item)
	}
	if item.Repeats != 2 {
		t.Fatalf("repeats = %d, want 2", item.Repeats)
	}
}

func TestDedupMajorityVote(t *testing.T) {
	sampled := []RawEntry{
		entry("q", 0, Bot, simdb.Result{Error: simdb.Success}),
		entry("q", 1, Browser, simdb.Result{Error: simdb.Success}),
		entry("q", 2, Browser, simdb.Result{Error: simdb.NonSevere}),
	}
	w := Dedup(sampled)
	item := w.Items[0]
	if item.Class != Browser {
		t.Fatalf("class = %v, want browser (majority)", item.Class)
	}
	if item.ErrorClass != simdb.Success {
		t.Fatalf("error = %v, want success (majority)", item.ErrorClass)
	}
}

func TestDedupPreservesFirstSeenOrder(t *testing.T) {
	for _, c := range []struct {
		stmts []string
		want  []string
	}{
		{[]string{"b", "a", "b"}, []string{"b", "a"}},
		// "c" is first seen after "a" has repeated: it stays last.
		{[]string{"a", "b", "a", "a", "b", "a", "c", "a"}, []string{"a", "b", "c"}},
	} {
		sampled := make([]RawEntry, len(c.stmts))
		for i, stmt := range c.stmts {
			sampled[i] = entry(stmt, i, Bot, simdb.Result{})
		}
		if got := Statements(Dedup(sampled).Items); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Dedup(%v) order = %v, want %v", c.stmts, got, c.want)
		}
	}
}

// dedupSorted is Dedup as it was before it collected groups in
// first-seen order: it sorts the statements by their first sighting
// afterwards. Kept as the oracle for TestDedupMatchesSortedProperty.
func dedupSorted(sampled []RawEntry) *Workload {
	type group struct {
		entries []RawEntry
		first   int
	}
	groups := map[string]*group{}
	order := 0
	for _, e := range sampled {
		g, ok := groups[e.Statement]
		if !ok {
			g = &group{first: order}
			order++
			groups[e.Statement] = g
		}
		g.entries = append(g.entries, e)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return groups[keys[i]].first < groups[keys[j]].first
	})
	w := &Workload{Items: make([]Item, 0, len(keys))}
	for _, stmt := range keys {
		g := groups[stmt]
		w.Items = append(w.Items, aggregate(stmt, g.entries))
	}
	return w
}

// Property: over sampled logs whose statements repeat interleaved,
// Dedup equals the sort-based oracle, labels and order alike.
func TestDedupMatchesSortedProperty(t *testing.T) {
	type draw struct {
		Stmt, Class, Err, User uint8
		Answer                 uint16
		CPU, Elapsed           float64
	}
	f := func(draws []draw) bool {
		sampled := make([]RawEntry, len(draws))
		for i, d := range draws {
			sampled[i] = RawEntry{
				// Few statements, so most repeat and first sightings
				// interleave with repeats of earlier ones.
				Statement: fmt.Sprintf("q%d", d.Stmt%13),
				SessionID: i,
				Class:     SessionClass(d.Class % NumSessionClasses),
				User:      fmt.Sprintf("u%d", d.User%3),
				Result: simdb.Result{
					Error:      simdb.ErrorClass(d.Err % uint8(simdb.NumErrorClasses)),
					AnswerSize: int64(d.Answer),
					CPUTime:    d.CPU,
					Elapsed:    d.Elapsed,
				},
			}
		}
		return reflect.DeepEqual(Dedup(sampled), dedupSorted(sampled))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractDeterministicGivenSeed(t *testing.T) {
	log := []RawEntry{
		entry("q1", 0, Bot, simdb.Result{}),
		entry("q2", 0, Bot, simdb.Result{}),
		entry("q3", 1, Bot, simdb.Result{}),
	}
	w1 := Extract(log, rand.New(rand.NewSource(42)))
	w2 := Extract(log, rand.New(rand.NewSource(42)))
	if len(w1.Items) != len(w2.Items) {
		t.Fatal("extraction should be deterministic")
	}
	for i := range w1.Items {
		if w1.Items[i].Statement != w2.Items[i].Statement {
			t.Fatal("extraction should be deterministic")
		}
	}
}

func TestRepetitionHistogramBuckets(t *testing.T) {
	w := &Workload{Items: []Item{
		{Repeats: 1}, {Repeats: 1}, {Repeats: 2}, {Repeats: 3},
		{Repeats: 10}, {Repeats: 50}, {Repeats: 500}, {Repeats: 5000},
	}}
	h := w.RepetitionHistogram()
	want := map[string]int{"1": 2, "2": 1, "3": 1, "4-20": 1, "21-100": 1, "101-1000": 1, ">1000": 1}
	for k, v := range want {
		if h[k] != v {
			t.Errorf("h[%q] = %d, want %d", k, h[k], v)
		}
	}
}

func TestRandomSplitFractions(t *testing.T) {
	items := make([]Item, 100)
	for i := range items {
		items[i].Statement = string(rune('a' + i%26))
	}
	s := RandomSplit(items, 0.1, 0.1, rand.New(rand.NewSource(3)))
	if len(s.Train) != 80 || len(s.Valid) != 10 || len(s.Test) != 10 {
		t.Fatalf("split = %d/%d/%d", len(s.Train), len(s.Valid), len(s.Test))
	}
}

// Property: RandomSplit partitions without loss or duplication.
func TestRandomSplitPartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)
		items := make([]Item, n)
		for i := range items {
			items[i].AnswerSize = float64(i)
		}
		s := RandomSplit(items, 0.1, 0.1, rand.New(rand.NewSource(seed)))
		total := len(s.Train) + len(s.Valid) + len(s.Test)
		if total != n {
			return false
		}
		seen := map[float64]bool{}
		for _, part := range [][]Item{s.Train, s.Valid, s.Test} {
			for _, item := range part {
				if seen[item.AnswerSize] {
					return false
				}
				seen[item.AnswerSize] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUserSplitKeepsUsersDisjoint(t *testing.T) {
	var items []Item
	for u := 0; u < 10; u++ {
		for q := 0; q < 20; q++ {
			items = append(items, Item{User: string(rune('a' + u))})
		}
	}
	s := UserSplit(items, 0.1, 0.1, rand.New(rand.NewSource(5)))
	seen := map[string]string{}
	record := func(part string, items []Item) {
		for _, item := range items {
			if prev, ok := seen[item.User]; ok && prev != part {
				t.Fatalf("user %q appears in %s and %s", item.User, prev, part)
			}
			seen[item.User] = part
		}
	}
	record("train", s.Train)
	record("valid", s.Valid)
	record("test", s.Test)
	if len(s.Train)+len(s.Valid)+len(s.Test) != len(items) {
		t.Fatal("user split lost items")
	}
	if len(s.Test) == 0 || len(s.Train) == 0 {
		t.Fatal("user split should populate train and test")
	}
}

func TestSessionClassStrings(t *testing.T) {
	want := []string{"no_web_hit", "unknown", "bot", "admin", "program", "anonymous", "browser"}
	for i, name := range want {
		if SessionClass(i).String() != name {
			t.Errorf("class %d = %q, want %q", i, SessionClass(i).String(), name)
		}
	}
	if SessionClass(99).String() != "?" {
		t.Error("out of range class")
	}
}

func TestLabelAccessors(t *testing.T) {
	items := []Item{{Statement: "a"}, {Statement: "b"}}
	if got := Statements(items); got[0] != "a" || got[1] != "b" {
		t.Fatal("Statements")
	}
}

func TestAnalyzeCounts(t *testing.T) {
	w := &Workload{Items: []Item{
		{Statement: "SELECT * FROM t", ErrorClass: simdb.Success, Class: Bot, AnswerSize: 10, CPUTime: 1},
		{Statement: "UPDATE t SET x=1", ErrorClass: simdb.NonSevere, Class: Browser, AnswerSize: -1, CPUTime: 0},
		{Statement: "garbage text here", ErrorClass: simdb.Severe, Class: Browser, AnswerSize: -1, CPUTime: 0},
	}}
	a := Analyze(w)
	if a.StatementTypes["SELECT"] != 1 || a.StatementTypes["UPDATE"] != 1 || a.StatementTypes["OTHER"] != 1 {
		t.Fatalf("types = %v", a.StatementTypes)
	}
	if a.ErrorClassCounts["success"] != 1 || a.ErrorClassCounts["severe"] != 1 {
		t.Fatalf("errors = %v", a.ErrorClassCounts)
	}
	// Only successful queries contribute to the label summaries.
	if a.AnswerSizeSummary.N != 1 {
		t.Fatalf("answer summary N = %d, want 1", a.AnswerSizeSummary.N)
	}
	if len(a.Correlation) != 10 {
		t.Fatalf("correlation dims = %d", len(a.Correlation))
	}
}

func TestBySessionClassBreakdown(t *testing.T) {
	w := &Workload{Items: []Item{
		{Statement: "SELECT a FROM t", Class: Bot, AnswerSize: 10},
		{Statement: "SELECT b FROM t", Class: Bot, AnswerSize: 20},
		{Statement: "SELECT c FROM t", Class: Browser, AnswerSize: 100},
	}}
	a := Analyze(w)
	rows := BySessionClass(w, a, func(item Item, _ sqlparse.Features) (float64, bool) {
		return item.AnswerSize, true
	})
	var botRow, browserRow *ClassBreakdown
	for i := range rows {
		switch rows[i].Class {
		case "bot":
			botRow = &rows[i]
		case "browser":
			browserRow = &rows[i]
		}
	}
	if botRow == nil || botRow.N != 2 || botRow.Mean != 15 {
		t.Fatalf("bot row = %+v", botRow)
	}
	if browserRow == nil || browserRow.N != 1 {
		t.Fatalf("browser row = %+v", browserRow)
	}
}
