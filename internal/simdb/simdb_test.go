package simdb

import (
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sqlparse"
)

func sdssEngine() *Engine { return NewEngine(NewSDSSCatalog()) }

// mustParse returns the first statement of q, which must parse.
func mustParse(t *testing.T, q string) sqlparse.Statement {
	t.Helper()
	stmts, err := sqlparse.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return stmts[0]
}

func TestCatalogLookupCaseInsensitive(t *testing.T) {
	c := NewSDSSCatalog()
	if c.Table("photoobj") == nil || c.Table("PHOTOOBJ") == nil {
		t.Fatal("table lookup should be case-insensitive")
	}
	if c.Function("FPHOTOFLAGS") == nil {
		t.Fatal("function lookup should be case-insensitive")
	}
}

func TestColumnLookup(t *testing.T) {
	c := NewSDSSCatalog()
	pt := c.Table("PhotoObj")
	if pt.Column("RA") == nil || pt.Column("ra") == nil {
		t.Fatal("column lookup should be case-insensitive")
	}
	if pt.Column("nonexistent") != nil {
		t.Fatal("missing column should be nil")
	}
}

func TestAnalyzeValidQuery(t *testing.T) {
	c := NewSDSSCatalog()
	stmt := mustParse(t, "SELECT ra, dec FROM PhotoObj WHERE type = 6")
	if err := c.Analyze(stmt); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
}

func TestAnalyzeUnknownTable(t *testing.T) {
	c := NewSDSSCatalog()
	stmt := mustParse(t, "SELECT x FROM NoSuchTable")
	err := c.Analyze(stmt)
	se, ok := err.(*SemanticError)
	if !ok || se.Kind != "table" {
		t.Fatalf("err = %v, want table SemanticError", err)
	}
}

func TestAnalyzeUnknownColumn(t *testing.T) {
	c := NewSDSSCatalog()
	stmt := mustParse(t, "SELECT bogus_col FROM PhotoObj")
	err := c.Analyze(stmt)
	se, ok := err.(*SemanticError)
	if !ok || se.Kind != "column" {
		t.Fatalf("err = %v, want column SemanticError", err)
	}
}

func TestAnalyzeUnknownFunction(t *testing.T) {
	c := NewSDSSCatalog()
	stmt := mustParse(t, "SELECT dbo.fNoSuchFunc(ra) FROM PhotoObj")
	err := c.Analyze(stmt)
	se, ok := err.(*SemanticError)
	if !ok || se.Kind != "function" {
		t.Fatalf("err = %v, want function SemanticError", err)
	}
}

func TestAnalyzeAliasResolution(t *testing.T) {
	c := NewSDSSCatalog()
	stmt := mustParse(t, "SELECT p.ra FROM PhotoObj AS p WHERE p.type = 6")
	if err := c.Analyze(stmt); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Wrong alias must fail.
	stmt2 := mustParse(t, "SELECT q.ra FROM PhotoObj AS p")
	if err := c.Analyze(stmt2); err == nil {
		t.Fatal("unknown alias should fail")
	}
}

func TestAnalyzeCorrelatedSubquery(t *testing.T) {
	c := NewSDSSCatalog()
	q := `SELECT p.ra FROM PhotoObj AS p WHERE EXISTS
	      (SELECT 1 FROM SpecObj AS s WHERE s.bestobjid = p.objid)`
	stmt := mustParse(t, q)
	if err := c.Analyze(stmt); err != nil {
		t.Fatalf("correlated reference should resolve: %v", err)
	}
}

func TestAnalyzeDerivedTable(t *testing.T) {
	c := NewSDSSCatalog()
	q := "SELECT b.target FROM (SELECT target FROM Servers) b"
	stmt := mustParse(t, q)
	if err := c.Analyze(stmt); err != nil {
		t.Fatalf("derived column should resolve: %v", err)
	}
	q2 := "SELECT b.missing FROM (SELECT target FROM Servers) b"
	stmt2 := mustParse(t, q2)
	if err := c.Analyze(stmt2); err == nil {
		t.Fatal("column not exported by derived table should fail")
	}
}

func TestAnalyzeMyDBUserSpace(t *testing.T) {
	c := NewSDSSCatalog()
	q := "SELECT q.anything FROM mydb.MyTable AS q"
	stmt := mustParse(t, q)
	if err := c.Analyze(stmt); err != nil {
		t.Fatalf("MyDB tables should be opaque: %v", err)
	}
}

func TestAnalyzeExecProcedure(t *testing.T) {
	c := NewSDSSCatalog()
	stmt := mustParse(t, "EXEC dbo.spGetNeighbors 185.0, 62.8, 0.5")
	if err := c.Analyze(stmt); err != nil {
		t.Fatalf("known procedure: %v", err)
	}
	stmt2 := mustParse(t, "EXEC dbo.spNoSuch 1")
	if err := c.Analyze(stmt2); err == nil {
		t.Fatal("unknown procedure should fail")
	}
}

func TestExecuteSevereOnParseFailure(t *testing.T) {
	en := sdssEngine()
	r := en.Execute("this is not sql at all")
	if r.Error != Severe || r.AnswerSize != -1 || r.CPUTime != 0 {
		t.Fatalf("result = %+v", r)
	}
}

func TestExecuteNonSevereOnBadColumn(t *testing.T) {
	en := sdssEngine()
	r := en.Execute("SELECT nocolumn FROM PhotoObj")
	if r.Error != NonSevere || r.AnswerSize != -1 {
		t.Fatalf("result = %+v", r)
	}
	if r.CPUTime <= 0 {
		t.Fatal("binding failure should still cost compile time")
	}
}

func TestExecuteSuccess(t *testing.T) {
	en := sdssEngine()
	r := en.Execute("SELECT ra, dec FROM PhotoObj WHERE objid = 1237648720693755918")
	if r.Error != Success {
		t.Fatalf("result = %+v", r)
	}
	if r.AnswerSize < 0 {
		t.Fatal("successful query should have non-negative answer size")
	}
	if r.CPUTime <= 0 {
		t.Fatal("CPU time should be positive")
	}
}

func TestExecuteDeterministic(t *testing.T) {
	en := sdssEngine()
	q := "SELECT ra FROM PhotoObj WHERE type = 6"
	r1 := en.Execute(q)
	r2 := en.Execute(q)
	if r1 != r2 {
		t.Fatalf("execution must be deterministic: %+v vs %+v", r1, r2)
	}
}

func TestExecuteCountQueryReturnsOneRow(t *testing.T) {
	en := sdssEngine()
	r := en.Execute("SELECT COUNT(*) FROM Galaxy WHERE r < 22")
	if r.Error != Success || r.AnswerSize != 1 {
		t.Fatalf("count query result = %+v", r)
	}
}

func TestExecuteTopCapsAnswer(t *testing.T) {
	en := sdssEngine()
	r := en.Execute("SELECT TOP 10 ra FROM PhotoObj WHERE r < 22")
	if r.Error != Success || r.AnswerSize > 10 {
		t.Fatalf("TOP 10 result = %+v", r)
	}
}

func TestExecuteIndexSeekMuchCheaperThanScan(t *testing.T) {
	en := sdssEngine()
	seek := en.Execute("SELECT ra FROM PhotoObj WHERE objid = 1237648720693755918")
	scan := en.Execute("SELECT ra FROM PhotoObj WHERE extinction_r > 0.01")
	if seek.CPUTime*100 > scan.CPUTime {
		t.Fatalf("index seek (%v s) should be far cheaper than scan (%v s)",
			seek.CPUTime, scan.CPUTime)
	}
}

func TestExecuteFunctionPerRowExpensive(t *testing.T) {
	// The paper's Figure 1b anti-pattern: a function call in the WHERE
	// clause is evaluated once per scanned row.
	en := sdssEngine()
	withFunc := en.Execute("SELECT objid FROM PhotoObj WHERE flags & dbo.fPhotoFlags('BLENDED') > 0")
	without := en.Execute("SELECT objid FROM PhotoObj WHERE flags & 8 > 0")
	if withFunc.CPUTime < 10*without.CPUTime {
		t.Fatalf("per-row function cost should dominate: with=%v without=%v",
			withFunc.CPUTime, without.CPUTime)
	}
}

func TestExecuteSelectiveQuerySmallAnswer(t *testing.T) {
	en := sdssEngine()
	point := en.Execute("SELECT ra FROM PhotoObj WHERE objid = 1237648720693755918")
	broad := en.Execute("SELECT ra FROM PhotoObj WHERE r < 29")
	if point.AnswerSize > 100 {
		t.Fatalf("point query answer = %d, want tiny", point.AnswerSize)
	}
	if broad.AnswerSize < 1000*point.AnswerSize {
		t.Fatalf("broad query (%d) should dwarf point query (%d)",
			broad.AnswerSize, point.AnswerSize)
	}
}

func TestExecuteJoinCardinality(t *testing.T) {
	en := sdssEngine()
	r := en.Execute(`SELECT s.z FROM SpecObj AS s INNER JOIN PhotoObj AS p
	                 ON s.bestobjid = p.objid WHERE s.zconf > 0.99`)
	if r.Error != Success {
		t.Fatalf("result = %+v", r)
	}
	// Equi-join on a key column should not explode to cross-product.
	if r.AnswerSize > 1_000_000_000 {
		t.Fatalf("join answer exploded: %d", r.AnswerSize)
	}
}

func TestExecuteUpdateSharedTableDenied(t *testing.T) {
	en := sdssEngine()
	r := en.Execute("UPDATE PhotoObj SET ra = 0 WHERE objid = 5")
	if r.Error != NonSevere {
		t.Fatalf("shared-table write should fail: %+v", r)
	}
}

func TestExecuteUpdateUserSpaceAllowed(t *testing.T) {
	en := sdssEngine()
	r := en.Execute("UPDATE mydb.results SET ra = 0 WHERE objid = 5")
	if r.Error != Success {
		t.Fatalf("user-space write should succeed: %+v", r)
	}
}

func TestExecuteCreateDrop(t *testing.T) {
	en := sdssEngine()
	if r := en.Execute("CREATE TABLE mydb.t (x int)"); r.Error != Success {
		t.Fatalf("create = %+v", r)
	}
	if r := en.Execute("DROP TABLE mydb.t"); r.Error != Success {
		t.Fatalf("drop = %+v", r)
	}
}

func TestExecuteExec(t *testing.T) {
	en := sdssEngine()
	r := en.Execute("EXEC dbo.spGetNeighbors 185.0, 62.8, 0.5")
	if r.Error != Success || r.CPUTime <= 0 {
		t.Fatalf("exec = %+v", r)
	}
}

func TestSQLShareCatalogPerUser(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c1 := NewSQLShareCatalog("alice", rng)
	c2 := NewSQLShareCatalog("bob", rng)
	if len(c1.Tables) == 0 || len(c2.Tables) == 0 {
		t.Fatal("user catalogs should have tables")
	}
	for name := range c1.Tables {
		if !strings.HasPrefix(name, "alice_") {
			t.Fatalf("table %q should carry the user prefix", name)
		}
	}
	for name := range c1.Tables {
		if _, ok := c2.Tables[name]; ok {
			t.Fatal("users should not share table names")
		}
	}
}

func TestSQLShareEngineRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewSQLShareCatalog("alice", rng)
	names := c.TableNames()
	en := NewEngine(c)
	r := en.Execute("SELECT * FROM " + names[0])
	if r.Error != Success {
		t.Fatalf("result = %+v", r)
	}
}

func TestOptimizerIgnoresFunctionCost(t *testing.T) {
	opt := &Optimizer{Catalog: NewSDSSCatalog()}
	withFunc := opt.EstimateCost("SELECT objid FROM PhotoObj WHERE flags & dbo.fPhotoFlags('BLENDED') > 0")
	without := opt.EstimateCost("SELECT objid FROM PhotoObj WHERE flags & 8 > 0")
	// The optimizer does not charge per-row function costs, so the two
	// should be within a small factor (unlike true execution).
	ratio := withFunc / without
	if ratio > 3 || ratio < 1.0/3 {
		t.Fatalf("optimizer should not see function cost: ratio = %v", ratio)
	}
}

func TestOptimizerZeroOnParseFailure(t *testing.T) {
	opt := &Optimizer{Catalog: NewSDSSCatalog()}
	if got := opt.EstimateCost("not sql"); got != 0 {
		t.Fatalf("cost = %v, want 0", got)
	}
}

func TestOptimizerVsTrueCostDiverge(t *testing.T) {
	// The paper's premise: the analytic model mis-ranks queries that
	// true execution distinguishes (Section 6.2.2).
	cat := NewSDSSCatalog()
	en := NewEngine(cat)
	opt := &Optimizer{Catalog: cat}
	q1 := "SELECT objid FROM PhotoObj WHERE flags & dbo.fPhotoFlags('BLENDED') > 0"
	q2 := "SELECT objid FROM PhotoObj WHERE flags & 8 > 0"
	trueRatio := en.Execute(q1).CPUTime / en.Execute(q2).CPUTime
	optRatio := opt.EstimateCost(q1) / opt.EstimateCost(q2)
	if trueRatio < 5*optRatio {
		t.Fatalf("true ratio %v should exceed optimizer ratio %v", trueRatio, optRatio)
	}
}

func TestErrorClassString(t *testing.T) {
	if Severe.String() != "severe" || Success.String() != "success" || NonSevere.String() != "non_severe" {
		t.Fatal("class names must match the workload labels")
	}
	if ErrorClass(99).String() != "unknown" {
		t.Fatal("out-of-range class")
	}
}

// Property: Execute is total and label invariants hold for any input.
func TestExecuteTotalProperty(t *testing.T) {
	en := sdssEngine()
	f := func(s string) bool {
		r := en.Execute(s)
		if r.Error == Success {
			return r.AnswerSize >= 0 && r.CPUTime >= 0
		}
		return r.AnswerSize == -1 && r.CPUTime >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: answer size scales with predicate selectivity direction.
func TestAnswerMonotoneInRangeWidth(t *testing.T) {
	en := sdssEngine()
	narrow := en.Execute("SELECT objid FROM PhotoObj WHERE ra BETWEEN 180 AND 180.1")
	wide := en.Execute("SELECT objid FROM PhotoObj WHERE ra BETWEEN 100 AND 300")
	if narrow.AnswerSize >= wide.AnswerSize {
		t.Fatalf("narrow range (%d) should return fewer rows than wide (%d)",
			narrow.AnswerSize, wide.AnswerSize)
	}
}

// TestQueryRandMatchesFNVSeed: a statement's noise stream is
// math/rand's stream seeded with the 64-bit FNV-1a hash of its text,
// also when the pooled stream it reuses was drawn from before.
func TestQueryRandMatchesFNVSeed(t *testing.T) {
	for _, q := range []string{"", "SELECT 1", "select top 10 * from PhotoObj where ra > 180", strings.Repeat("x", 5000)} {
		h := fnv.New64a()
		h.Write([]byte(q))
		want := rand.New(rand.NewSource(int64(h.Sum64())))
		for round := 0; round < 2; round++ {
			got := queryRand(q)
			for d := 0; d < 700; d++ {
				if w, g := want.Float64(), got.Float64(); w != g {
					t.Fatalf("%q round %d draw %d: %v, want %v", q, round, d, g, w)
				}
			}
			queryRands.Put(got)
			want.Seed(int64(h.Sum64()))
		}
	}
}
