package simdb

import (
	"testing"

	"repro/internal/sqlparse"
)

func mustExpr(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	stmt := mustParse(t, "SELECT 1 FROM PhotoObj WHERE "+src)
	return stmt.(*sqlparse.SelectStmt).Where
}

func TestConstValueArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
		ok   bool
	}{
		{"ra > 156.519031-0.2", 156.319031, true},
		{"ra > 10+5", 15, true},
		{"ra > 2*3", 6, true},
		{"ra > 10/4", 2.5, true},
		{"ra > -5", -5, true},
		{"ra > dec", 0, false},
	}
	for _, c := range cases {
		e := mustExpr(t, c.src).(*sqlparse.BinaryExpr)
		v, ok := constValue(e.Right)
		if ok != c.ok {
			t.Errorf("%q: ok = %v, want %v", c.src, ok, c.ok)
			continue
		}
		if ok && (v-c.want > 1e-9 || c.want-v > 1e-9) {
			t.Errorf("%q: v = %v, want %v", c.src, v, c.want)
		}
	}
}

func TestConstValueDivByZero(t *testing.T) {
	e := mustExpr(t, "ra > 1/0").(*sqlparse.BinaryExpr)
	if _, ok := constValue(e.Right); ok {
		t.Fatal("division by zero should not fold")
	}
}

func newTestRelSet(t *testing.T, cat *Catalog) *relSet {
	t.Helper()
	rs := newRelSet(nil)
	pt := cat.Table("PhotoObj")
	rs.add(&relation{alias: "PhotoObj", table: pt, rows: float64(pt.Rows)})
	return rs
}

func TestEqualitySelectivityUsesDistinct(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	rs := newTestRelSet(t, cat)
	// type has 7 distinct values -> selectivity 1/7.
	info := est.analyzePredicate(mustExpr(t, "type = 6"), rs)
	if info.selectivity < 0.1 || info.selectivity > 0.2 {
		t.Fatalf("selectivity = %v, want ~1/7", info.selectivity)
	}
}

func TestUniformModeIgnoresStatistics(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat, Uniform: true}
	rs := newTestRelSet(t, cat)
	info := est.analyzePredicate(mustExpr(t, "type = 6"), rs)
	if info.selectivity != optimizerEqSel {
		t.Fatalf("uniform selectivity = %v, want %v", info.selectivity, optimizerEqSel)
	}
}

func TestAndMultipliesOrUnions(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	rs := newTestRelSet(t, cat)
	and := est.analyzePredicate(mustExpr(t, "type = 6 AND mode = 1"), rs)
	or := est.analyzePredicate(mustExpr(t, "type = 6 OR mode = 1"), rs)
	if and.selectivity >= or.selectivity {
		t.Fatalf("AND (%v) must be more selective than OR (%v)", and.selectivity, or.selectivity)
	}
	if and.predicates != 2 || or.predicates != 2 {
		t.Fatal("predicate counts")
	}
}

func TestNotInverts(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	rs := newTestRelSet(t, cat)
	pos := est.analyzePredicate(mustExpr(t, "type = 6"), rs)
	neg := est.analyzePredicate(mustExpr(t, "NOT type = 6"), rs)
	if d := pos.selectivity + neg.selectivity; d < 0.999 || d > 1.001 {
		t.Fatalf("NOT should complement: %v + %v", pos.selectivity, neg.selectivity)
	}
}

func TestBetweenSelectivityProportionalToWidth(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	rs := newTestRelSet(t, cat)
	narrow := est.analyzePredicate(mustExpr(t, "ra BETWEEN 180 AND 181"), rs)
	wide := est.analyzePredicate(mustExpr(t, "ra BETWEEN 0 AND 180"), rs)
	if narrow.selectivity >= wide.selectivity {
		t.Fatalf("narrow (%v) should be more selective than wide (%v)",
			narrow.selectivity, wide.selectivity)
	}
	if wide.selectivity < 0.4 || wide.selectivity > 0.6 {
		t.Fatalf("half-range selectivity = %v, want ~0.5", wide.selectivity)
	}
}

func TestInListSelectivityScalesWithK(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	rs := newTestRelSet(t, cat)
	one := est.analyzePredicate(mustExpr(t, "type IN (3)"), rs)
	three := est.analyzePredicate(mustExpr(t, "type IN (3, 4, 5)"), rs)
	if three.selectivity < 2.9*one.selectivity || three.selectivity > 3.1*one.selectivity {
		t.Fatalf("IN selectivity should scale with list size: %v vs %v",
			one.selectivity, three.selectivity)
	}
}

func TestFunctionCostAccumulates(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	rs := newTestRelSet(t, cat)
	info := est.analyzePredicate(mustExpr(t, "flags & dbo.fPhotoFlags('BLENDED') > 0"), rs)
	f := cat.Function("fPhotoFlags")
	if info.funcCostRow < f.CostPerCall {
		t.Fatalf("funcCostRow = %v, want >= %v", info.funcCostRow, f.CostPerCall)
	}
}

func TestIndexSeekDetection(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	rs := newTestRelSet(t, cat)
	// objid is near-unique: equality on it should mark the relation
	// indexed.
	est.analyzePredicate(mustExpr(t, "objid = 1237648720693755918"), rs)
	if !rs.rels[0].indexed {
		t.Fatal("high-distinct equality should trigger index seek")
	}
	// type (7 distinct values) should not.
	rs2 := newTestRelSet(t, cat)
	est.analyzePredicate(mustExpr(t, "type = 6"), rs2)
	if rs2.rels[0].indexed {
		t.Fatal("low-distinct equality must not trigger index seek")
	}
}

func TestJoinSelectivityUsesKeyDistinct(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	stmt := mustParse(t, "SELECT 1 FROM SpecObj AS s, PhotoObj AS p WHERE s.bestobjid = p.objid")
	sel := stmt.(*sqlparse.SelectStmt)
	p := est.estimateSelect(sel, nil)
	spec := float64(cat.Table("SpecObj").Rows)
	// Equi-join on the key: output should be around |SpecObj|, far
	// below the cross product.
	if p.Rows > spec*100 {
		t.Fatalf("join estimate %v is too close to cross product", p.Rows)
	}
	if p.Rows < 1 {
		t.Fatalf("join estimate %v collapsed to zero", p.Rows)
	}
}

func TestScalarAggregateOneRow(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	stmt := mustParse(t, "SELECT COUNT(*) FROM Galaxy WHERE r < 22")
	p := est.estimateSelect(stmt.(*sqlparse.SelectStmt), nil)
	if p.Rows != 1 {
		t.Fatalf("scalar aggregate rows = %v, want 1", p.Rows)
	}
}

func TestGroupByCapsAtDistinct(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	stmt := mustParse(t, "SELECT camcol, count(*) FROM PhotoObj GROUP BY camcol")
	p := est.estimateSelect(stmt.(*sqlparse.SelectStmt), nil)
	if p.Rows != 6 {
		t.Fatalf("group count = %v, want 6 (camcol distinct)", p.Rows)
	}
}

func TestTopCapsRows(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	stmt := mustParse(t, "SELECT TOP 10 objid FROM PhotoObj")
	p := est.estimateSelect(stmt.(*sqlparse.SelectStmt), nil)
	if p.Rows != 10 {
		t.Fatalf("TOP rows = %v, want 10", p.Rows)
	}
}

func TestUnionAllAdds(t *testing.T) {
	cat := NewSDSSCatalog()
	est := &estimator{cat: cat}
	stmt := mustParse(t, "SELECT TOP 10 objid FROM PhotoObj UNION ALL SELECT TOP 20 objid FROM Galaxy")
	p := est.estimateSelect(stmt.(*sqlparse.SelectStmt), nil)
	if p.Rows != 30 {
		t.Fatalf("UNION ALL rows = %v, want 30", p.Rows)
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-1) != 0 || clamp01(2) != 1 || clamp01(0.5) != 0.5 {
		t.Fatal("clamp01")
	}
}
