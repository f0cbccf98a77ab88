package synth

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simdb"
	"repro/internal/workload"
)

func smallSDSS(t *testing.T) *workload.Workload {
	t.Helper()
	g := NewSDSS(SDSSConfig{Sessions: 1500, HitsPerSessionMax: 2, Seed: 11})
	return g.Generate()
}

func TestSDSSGenerateDeterministic(t *testing.T) {
	g1 := NewSDSS(SDSSConfig{Sessions: 200, HitsPerSessionMax: 2, Seed: 5})
	g2 := NewSDSS(SDSSConfig{Sessions: 200, HitsPerSessionMax: 2, Seed: 5})
	w1, w2 := g1.Generate(), g2.Generate()
	if len(w1.Items) != len(w2.Items) {
		t.Fatalf("lengths differ: %d vs %d", len(w1.Items), len(w2.Items))
	}
	for i := range w1.Items {
		if w1.Items[i] != w2.Items[i] {
			t.Fatalf("item %d differs", i)
		}
	}
}

// TestGenerateMatchesExtract holds Generate, which labels only the hit
// each session keeps, to the paper's two steps over the fully labelled
// log: workload.Extract(GenerateLog()) with the Seed+1 stream. It also
// counts Generate's executions: one per distinct kept statement, never
// more than Sessions (1 040 for the benchmark's training workload, whose
// raw log has 2 022 distinct statements).
func TestGenerateMatchesExtract(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for _, seed := range []int64{20200614, 7, 1} {
			for _, sessions := range []int{1, 60, 1400} {
				for _, hits := range []int{1, 2, 3, 7} {
					cfg := SDSSConfig{Sessions: sessions, HitsPerSessionMax: hits, Seed: seed}
					name := fmt.Sprintf("procs=%d/seed=%d/sessions=%d/hits=%d", procs, seed, sessions, hits)
					got := NewSDSS(cfg).Generate().Items
					want := workload.Extract(NewSDSS(cfg).GenerateLog(), rand.New(rand.NewSource(seed+1))).Items
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: Generate differs from Extract(GenerateLog())", name)
					}
					lab := newLabeller()
					NewSDSS(cfg).simulate(lab, rand.New(rand.NewSource(seed+1)))
					if lab.n != len(got) || lab.n > sessions {
						t.Fatalf("%s: Generate ran %d executions for %d items of %d sessions", name, lab.n, len(got), sessions)
					}
					if seed == 20200614 && sessions == 1400 && hits == 3 {
						logLab := newLabeller()
						NewSDSS(cfg).simulate(logLab, nil)
						if lab.n != 1040 || logLab.n != 2022 {
							t.Fatalf("%s: executions %d (Generate) and %d (GenerateLog), want 1040 and 2022", name, lab.n, logLab.n)
						}
					}
				}
			}
		}
	}
}

func TestSDSSSeedChangesWorkload(t *testing.T) {
	w1 := NewSDSS(SDSSConfig{Sessions: 200, Seed: 5}).Generate()
	w2 := NewSDSS(SDSSConfig{Sessions: 200, Seed: 6}).Generate()
	same := 0
	n := len(w1.Items)
	if len(w2.Items) < n {
		n = len(w2.Items)
	}
	for i := 0; i < n; i++ {
		if w1.Items[i].Statement == w2.Items[i].Statement {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds should change the workload")
	}
}

func TestSDSSErrorClassImbalance(t *testing.T) {
	w := smallSDSS(t)
	counts := map[simdb.ErrorClass]int{}
	for _, item := range w.Items {
		counts[item.ErrorClass]++
	}
	n := float64(len(w.Items))
	successFrac := float64(counts[simdb.Success]) / n
	if successFrac < 0.93 || successFrac > 0.995 {
		t.Fatalf("success fraction = %v, want ~0.97 (paper: 0.9722)", successFrac)
	}
	if counts[simdb.Severe] == 0 || counts[simdb.NonSevere] == 0 {
		t.Fatal("both error classes must be represented")
	}
}

func TestSDSSSessionClassImbalance(t *testing.T) {
	w := smallSDSS(t)
	counts := map[workload.SessionClass]int{}
	for _, item := range w.Items {
		counts[item.Class]++
	}
	n := float64(len(w.Items))
	if frac := float64(counts[workload.NoWebHit]) / n; frac < 0.3 || frac > 0.6 {
		t.Fatalf("no_web_hit fraction = %v, want ~0.45", frac)
	}
	if frac := float64(counts[workload.Bot]) / n; frac < 0.15 || frac > 0.4 {
		t.Fatalf("bot fraction = %v, want ~0.26", frac)
	}
	if counts[workload.Browser] == 0 || counts[workload.Program] == 0 {
		t.Fatal("browser and program classes must be represented")
	}
}

func TestSDSSAnswerSizeSkew(t *testing.T) {
	w := smallSDSS(t)
	var success []float64
	for _, item := range w.Items {
		if item.ErrorClass == simdb.Success {
			success = append(success, item.AnswerSize)
		}
	}
	// Median answer size in the paper is 1 (Figure 6c): half the
	// queries return at most one row.
	small := 0
	for _, v := range success {
		if v <= 10 {
			small++
		}
	}
	if float64(small)/float64(len(success)) < 0.3 {
		t.Fatalf("answer sizes not skewed to small values: %d/%d <= 10", small, len(success))
	}
	// And there must be a heavy tail.
	maxV := 0.0
	for _, v := range success {
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 1e6 {
		t.Fatalf("max answer size = %v, want heavy tail", maxV)
	}
}

func TestSDSSRepetition(t *testing.T) {
	w := smallSDSS(t)
	repeated := 0
	for _, item := range w.Items {
		if item.Repeats > 1 {
			repeated++
		}
	}
	frac := float64(repeated) / float64(len(w.Items))
	// Paper: 18.5% of statements appear in more than one log entry.
	if frac < 0.02 || frac > 0.4 {
		t.Fatalf("repeated-statement fraction = %v, want ~0.1-0.2", frac)
	}
}

func TestSDSSStatementTypeMix(t *testing.T) {
	w := smallSDSS(t)
	selects := 0
	for _, item := range w.Items {
		if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(item.Statement)), "SELECT") {
			selects++
		}
	}
	frac := float64(selects) / float64(len(w.Items))
	// Paper: ~96.5% SELECT on SDSS.
	if frac < 0.85 || frac > 0.995 {
		t.Fatalf("SELECT fraction = %v, want ~0.96", frac)
	}
}

func TestSDSSBotSessionsRepeatTemplates(t *testing.T) {
	g := NewSDSS(SDSSConfig{Sessions: 400, HitsPerSessionMax: 6, Seed: 9})
	log := g.GenerateLog()
	// Within a bot session, hits should share a template shape (same
	// leading keywords) most of the time.
	bySession := map[int][]workload.RawEntry{}
	for _, e := range log {
		if e.Class == workload.Bot {
			bySession[e.SessionID] = append(bySession[e.SessionID], e)
		}
	}
	checked := 0
	consistent := 0
	for _, entries := range bySession {
		if len(entries) < 2 {
			continue
		}
		checked++
		p1 := templatePrefix(entries[0].Statement)
		p2 := templatePrefix(entries[1].Statement)
		if p1 == p2 {
			consistent++
		}
	}
	if checked == 0 {
		t.Skip("no multi-hit bot sessions generated")
	}
	if float64(consistent)/float64(checked) < 0.5 {
		t.Fatalf("bot sessions should reuse templates: %d/%d", consistent, checked)
	}
}

func templatePrefix(q string) string {
	words := strings.Fields(q)
	if len(words) > 4 {
		words = words[:4]
	}
	return strings.Join(words, " ")
}

func TestSQLShareGenerateDeterministic(t *testing.T) {
	w1 := NewSQLShare(SQLShareConfig{Users: 10, QueriesPerUser: 20, Seed: 3}).Generate()
	w2 := NewSQLShare(SQLShareConfig{Users: 10, QueriesPerUser: 20, Seed: 3}).Generate()
	if len(w1.Items) != len(w2.Items) {
		t.Fatal("not deterministic")
	}
	for i := range w1.Items {
		if w1.Items[i].Statement != w2.Items[i].Statement {
			t.Fatal("not deterministic")
		}
	}
}

func TestSQLShareUsersHaveOwnVocabulary(t *testing.T) {
	w := NewSQLShare(SQLShareConfig{Users: 8, QueriesPerUser: 30, Seed: 3}).Generate()
	users := map[string]bool{}
	for _, item := range w.Items {
		if item.User == "" {
			t.Fatal("SQLShare items must carry a user")
		}
		users[item.User] = true
		// Statements referencing a table should carry the user prefix
		// in its name (per-user schemas).
		if strings.Contains(item.Statement, "FROM "+item.User+"_") {
			continue
		}
	}
	if len(users) != 8 {
		t.Fatalf("users = %d, want 8", len(users))
	}
}

func TestSQLShareCPUTimeLabels(t *testing.T) {
	w := NewSQLShare(SQLShareConfig{Users: 10, QueriesPerUser: 30, Seed: 3}).Generate()
	positive := 0
	for _, item := range w.Items {
		if item.CPUTime > 0 {
			positive++
		}
	}
	if float64(positive)/float64(len(w.Items)) < 0.5 {
		t.Fatal("most SQLShare queries should have positive CPU time")
	}
}

func TestSQLShareUserSplitViability(t *testing.T) {
	w := NewSQLShare(SQLShareConfig{Users: 20, QueriesPerUser: 25, Seed: 4}).Generate()
	s := workload.UserSplit(w.Items, 0.1, 0.1, rand.New(rand.NewSource(1)))
	if len(s.Test) == 0 || len(s.Train) == 0 {
		t.Fatal("user split should populate both partitions")
	}
	trainUsers := map[string]bool{}
	for _, item := range s.Train {
		trainUsers[item.User] = true
	}
	for _, item := range s.Test {
		if trainUsers[item.User] {
			t.Fatalf("user %s leaks between train and test", item.User)
		}
	}
}

func TestMisspellChangesIdentifier(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	changed := 0
	for i := 0; i < 50; i++ {
		if misspell(rng, "modelmag_u") != "modelmag_u" {
			changed++
		}
	}
	if changed < 45 {
		t.Fatalf("misspell should nearly always change the input: %d/50", changed)
	}
}
