package sqlparse

import (
	"testing"
	"testing/quick"
)

// mustParse returns the first statement of q, which must parse.
func mustParse(t *testing.T, q string) Statement {
	t.Helper()
	stmts, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return stmts[0]
}

func mustParseSelect(t *testing.T, q string) *SelectStmt {
	t.Helper()
	stmt := mustParse(t, q)
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", q, stmt)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustParseSelect(t, "SELECT * FROM PhotoTag WHERE objId=0x112d075f80360018")
	if len(sel.Columns) != 1 || !sel.Columns[0].Star {
		t.Fatalf("columns = %+v", sel.Columns)
	}
	if len(sel.From) != 1 {
		t.Fatalf("from = %+v", sel.From)
	}
	tn, ok := sel.From[0].(*TableName)
	if !ok || tn.Parts[0] != "PhotoTag" {
		t.Fatalf("from[0] = %+v", sel.From[0])
	}
	if sel.Where == nil {
		t.Fatal("missing WHERE")
	}
}

func TestParsePaperFigure2b(t *testing.T) {
	q := `SELECT p.objid,p.ra,p.dec,p.u,p.g,p.r,p.i,p.z
	FROM PhotoObj AS p
	WHERE type=6
	AND p.ra BETWEEN (156.519031-0.200000) AND (156.519031+0.200000)
	AND p.dec BETWEEN (62.835405-0.200000) AND (62.835405+0.200000)
	ORDER BY p.objid`
	sel := mustParseSelect(t, q)
	if len(sel.Columns) != 8 {
		t.Fatalf("columns = %d, want 8", len(sel.Columns))
	}
	if len(sel.OrderBy) != 1 {
		t.Fatalf("order by = %d, want 1", len(sel.OrderBy))
	}
	tn := sel.From[0].(*TableName)
	if tn.Alias != "p" {
		t.Fatalf("alias = %q, want p", tn.Alias)
	}
}

func TestParseCountStar(t *testing.T) {
	sel := mustParseSelect(t, "SELECT COUNT(*) FROM Galaxy WHERE r < 22")
	fc, ok := sel.Columns[0].Expr.(*FuncCall)
	if !ok || !fc.Star || fc.BareName != "COUNT" {
		t.Fatalf("columns[0] = %+v", sel.Columns[0].Expr)
	}
}

func TestParseTop(t *testing.T) {
	sel := mustParseSelect(t, "SELECT TOP 10 objid FROM PhotoObj")
	if sel.Top == nil || sel.Top.Count != 10 {
		t.Fatalf("top = %+v", sel.Top)
	}
}

func TestParseTopPercent(t *testing.T) {
	sel := mustParseSelect(t, "SELECT TOP 5 PERCENT objid FROM PhotoObj")
	if sel.Top == nil || !sel.Top.Percent {
		t.Fatalf("top = %+v", sel.Top)
	}
}

func TestParseLimit(t *testing.T) {
	sel := mustParseSelect(t, "SELECT x FROM t LIMIT 20 OFFSET 5")
	if sel.Top == nil || sel.Top.Count != 20 {
		t.Fatalf("limit = %+v", sel.Top)
	}
}

func TestParseExplicitJoin(t *testing.T) {
	q := "SELECT s.objid FROM SpecPhoto AS s INNER JOIN PhotoObj AS p ON s.objid = p.objid"
	sel := mustParseSelect(t, q)
	join, ok := sel.From[0].(*JoinRef)
	if !ok || join.Type != "INNER" || join.On == nil {
		t.Fatalf("from[0] = %+v", sel.From[0])
	}
}

func TestParseBareJoin(t *testing.T) {
	q := "SELECT 1 FROM a JOIN b ON a.x = b.x"
	sel := mustParseSelect(t, q)
	if _, ok := sel.From[0].(*JoinRef); !ok {
		t.Fatalf("from[0] = %T, want *JoinRef", sel.From[0])
	}
}

func TestParseLeftOuterJoin(t *testing.T) {
	q := "SELECT 1 FROM a LEFT OUTER JOIN b ON a.x = b.x"
	sel := mustParseSelect(t, q)
	join := sel.From[0].(*JoinRef)
	if join.Type != "LEFT" {
		t.Fatalf("type = %q", join.Type)
	}
}

func TestParseCrossJoinNoOn(t *testing.T) {
	q := "SELECT 1 FROM a CROSS JOIN b"
	sel := mustParseSelect(t, q)
	join := sel.From[0].(*JoinRef)
	if join.Type != "CROSS" || join.On != nil {
		t.Fatalf("join = %+v", join)
	}
}

func TestParseCommaFrom(t *testing.T) {
	q := "SELECT 1 FROM Jobs j, Users u, Status s WHERE j.uid = u.id"
	sel := mustParseSelect(t, q)
	if len(sel.From) != 3 {
		t.Fatalf("from = %d refs, want 3", len(sel.From))
	}
}

func TestParseDerivedTable(t *testing.T) {
	q := "SELECT b.target FROM (SELECT DISTINCT target FROM Servers) b"
	sel := mustParseSelect(t, q)
	sub, ok := sel.From[0].(*SubqueryRef)
	if !ok || sub.Alias != "b" || !sub.Select.Distinct {
		t.Fatalf("from[0] = %+v", sel.From[0])
	}
}

func TestParseScalarSubquery(t *testing.T) {
	q := `SELECT objid FROM SpecPhoto WHERE u - g = (SELECT min(u - g) FROM SpecPhoto)`
	sel := mustParseSelect(t, q)
	cmp, ok := sel.Where.(*BinaryExpr)
	if !ok || cmp.Op != "=" {
		t.Fatalf("where = %+v", sel.Where)
	}
	if _, ok := cmp.Right.(*SubqueryExpr); !ok {
		t.Fatalf("right = %T, want *SubqueryExpr", cmp.Right)
	}
}

func TestParseInSubquery(t *testing.T) {
	q := "SELECT name FROM Servers WHERE name NOT IN (SELECT name FROM Servers WHERE bad = 1)"
	sel := mustParseSelect(t, q)
	in, ok := sel.Where.(*InExpr)
	if !ok || !in.Not || in.Subquery == nil {
		t.Fatalf("where = %+v", sel.Where)
	}
}

func TestParseInList(t *testing.T) {
	q := "SELECT 1 FROM t WHERE type IN (3, 6)"
	sel := mustParseSelect(t, q)
	in := sel.Where.(*InExpr)
	if len(in.List) != 2 {
		t.Fatalf("in list = %d, want 2", len(in.List))
	}
}

func TestParseExists(t *testing.T) {
	q := "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)"
	sel := mustParseSelect(t, q)
	if _, ok := sel.Where.(*ExistsExpr); !ok {
		t.Fatalf("where = %T", sel.Where)
	}
}

func TestParseBetween(t *testing.T) {
	q := "SELECT 1 FROM t WHERE ra BETWEEN 185 AND 190"
	sel := mustParseSelect(t, q)
	b, ok := sel.Where.(*BetweenExpr)
	if !ok || b.Not {
		t.Fatalf("where = %+v", sel.Where)
	}
}

func TestParseNotBetween(t *testing.T) {
	q := "SELECT 1 FROM t WHERE ra NOT BETWEEN 185 AND 190"
	sel := mustParseSelect(t, q)
	b := sel.Where.(*BetweenExpr)
	if !b.Not {
		t.Fatal("expected NOT BETWEEN")
	}
}

func TestParseLike(t *testing.T) {
	q := "SELECT 1 FROM Jobs j WHERE j.outputtype LIKE '%QUERY%'"
	sel := mustParseSelect(t, q)
	cmp := sel.Where.(*BinaryExpr)
	if cmp.Op != "LIKE" {
		t.Fatalf("op = %q", cmp.Op)
	}
}

func TestParseIsNull(t *testing.T) {
	q := "SELECT 1 FROM t WHERE x IS NOT NULL AND y IS NULL"
	sel := mustParseSelect(t, q)
	and := sel.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("op = %q", and.Op)
	}
}

func TestParseGroupByHaving(t *testing.T) {
	q := "SELECT target, min(queue) AS queue FROM Servers GROUP BY target HAVING count(*) > 1"
	sel := mustParseSelect(t, q)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatalf("groupby=%d having=%v", len(sel.GroupBy), sel.Having)
	}
}

func TestParseUnion(t *testing.T) {
	q := "SELECT a FROM t UNION ALL SELECT a FROM u"
	sel := mustParseSelect(t, q)
	if sel.SetOp != "UNION ALL" || sel.Next == nil {
		t.Fatalf("setop=%q next=%v", sel.SetOp, sel.Next)
	}
}

func TestParseCase(t *testing.T) {
	q := "SELECT CASE WHEN type = 3 THEN 'galaxy' ELSE 'star' END FROM PhotoObj"
	sel := mustParseSelect(t, q)
	c, ok := sel.Columns[0].Expr.(*CaseExpr)
	if !ok || len(c.Whens) != 1 || c.Else == nil {
		t.Fatalf("case = %+v", sel.Columns[0].Expr)
	}
}

func TestParseCast(t *testing.T) {
	q := "SELECT cast(j.estimate AS varchar) AS queue FROM Jobs j"
	sel := mustParseSelect(t, q)
	c, ok := sel.Columns[0].Expr.(*CastExpr)
	if !ok || c.Type != "varchar" {
		t.Fatalf("cast = %+v", sel.Columns[0].Expr)
	}
	if sel.Columns[0].Alias != "queue" {
		t.Fatalf("alias = %q", sel.Columns[0].Alias)
	}
}

func TestParseCastWithPrecision(t *testing.T) {
	q := "SELECT cast(x AS decimal(10, 2)) FROM t"
	mustParseSelect(t, q)
}

func TestParseSelectInto(t *testing.T) {
	q := "SELECT objid INTO mydb.MyTable FROM PhotoObj WHERE r < 20"
	sel := mustParseSelect(t, q)
	if sel.Into != "mydb.MyTable" {
		t.Fatalf("into = %q", sel.Into)
	}
}

func TestParseWithCTE(t *testing.T) {
	q := "WITH cte AS (SELECT a FROM t) SELECT a FROM cte"
	mustParseSelect(t, q)
}

func TestParseFunctionInWhere(t *testing.T) {
	q := "SELECT x FROM PhotoObj WHERE flags & dbo.fPhotoFlags('BLENDED') > 0"
	sel := mustParseSelect(t, q)
	if sel.Where == nil {
		t.Fatal("missing WHERE")
	}
}

func TestParseMultiStatement(t *testing.T) {
	stmts, err := Parse("SELECT 1 FROM a; SELECT 2 FROM b;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("stmts = %d, want 2", len(stmts))
	}
}

func TestParseInsertValues(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
	ins := stmt.(*InsertStmt)
	if ins.Rows != 2 || len(ins.Columns) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
}

func TestParseInsertSelect(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO t SELECT a FROM u")
	if stmt.(*InsertStmt).Select == nil {
		t.Fatal("missing select")
	}
}

func TestParseUpdate(t *testing.T) {
	stmt := mustParse(t, "UPDATE t SET a = 1, b = b + 1 WHERE id = 3")
	upd := stmt.(*UpdateStmt)
	if len(upd.Sets) != 2 || upd.Where == nil {
		t.Fatalf("update = %+v", upd)
	}
}

func TestParseDelete(t *testing.T) {
	stmt := mustParse(t, "DELETE FROM t WHERE id = 3")
	if stmt.(*DeleteStmt).Where == nil {
		t.Fatal("missing where")
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, "CREATE TABLE mydb.results (objid bigint, ra float)")
	c := stmt.(*CreateStmt)
	if c.What != "TABLE" {
		t.Fatalf("what = %q", c.What)
	}
}

func TestParseDropTable(t *testing.T) {
	stmt := mustParse(t, "DROP TABLE mydb.results")
	if stmt.(*DropStmt).What != "TABLE" {
		t.Fatal("what != TABLE")
	}
}

func TestParseExec(t *testing.T) {
	stmt := mustParse(t, "EXEC dbo.spGetNeighbors 185.0, 62.8, 0.5")
	ex := stmt.(*ExecStmt)
	if ex.Proc != "dbo.spGetNeighbors" || len(ex.Args) != 3 {
		t.Fatalf("exec = %+v", ex)
	}
}

func TestParseRejectsJunk(t *testing.T) {
	junk := []string{
		"how do I find galaxies near m31?",
		"SELECT FROM WHERE",
		"SELECT * FROM",
		"",
		"   ",
		"SELEC * FROM t",
		"SELECT * FROM t WHERE (a = 1",
	}
	for _, q := range junk {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestParseComments(t *testing.T) {
	q := "SELECT a -- trailing comment\nFROM t /* block */ WHERE a = 1"
	mustParseSelect(t, q)
}

func TestParseDeepNestingGuard(t *testing.T) {
	q := "SELECT a FROM t WHERE x = "
	for i := 0; i < 300; i++ {
		q += "("
	}
	q += "1"
	for i := 0; i < 300; i++ {
		q += ")"
	}
	if _, err := Parse(q); err == nil {
		t.Fatal("expected depth-guard error")
	}
}

// Property: Parse never panics on arbitrary input.
func TestParseTotalProperty(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: lexing is total and terminates with EOF.
func TestLexTotalProperty(t *testing.T) {
	f := func(s string) bool {
		st := borrowToks(s)
		defer releaseToks(st)
		return len(st.toks) > 0 && st.toks[len(st.toks)-1].Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
