package sqlparse

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseTopParenForm(t *testing.T) {
	sel := mustParseSelect(t, "SELECT TOP (25) objid FROM PhotoObj")
	if sel.Top == nil || sel.Top.Count != 25 {
		t.Fatalf("top = %+v", sel.Top)
	}
}

func TestParseIntersectExcept(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a FROM t INTERSECT SELECT a FROM u")
	if sel.SetOp != "INTERSECT" {
		t.Fatalf("setop = %q", sel.SetOp)
	}
	sel2 := mustParseSelect(t, "SELECT a FROM t EXCEPT SELECT a FROM u")
	if sel2.SetOp != "EXCEPT" {
		t.Fatalf("setop = %q", sel2.SetOp)
	}
}

func TestParseChainedUnions(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a FROM t UNION SELECT a FROM u UNION ALL SELECT a FROM v")
	if sel.SetOp != "UNION" || sel.Next == nil || sel.Next.SetOp != "UNION ALL" {
		t.Fatalf("chain = %q -> %q", sel.SetOp, sel.Next.SetOp)
	}
}

func TestParseCaseWithOperand(t *testing.T) {
	q := "SELECT CASE type WHEN 3 THEN 'g' WHEN 6 THEN 's' END FROM PhotoObj"
	sel := mustParseSelect(t, q)
	c := sel.Columns[0].Expr.(*CaseExpr)
	if c.Operand == nil || len(c.Whens) != 2 || c.Else != nil {
		t.Fatalf("case = %+v", c)
	}
}

func TestParseCaseWithoutWhenFails(t *testing.T) {
	if _, err := Parse("SELECT CASE END FROM t"); err == nil {
		t.Fatal("CASE without WHEN should fail")
	}
}

func TestParseWithCTEColumnList(t *testing.T) {
	q := "WITH cte (a, b) AS (SELECT x, y FROM t) SELECT a FROM cte"
	mustParseSelect(t, q)
}

func TestParseMultipleCTEs(t *testing.T) {
	q := "WITH a AS (SELECT 1), b AS (SELECT 2) SELECT * FROM a"
	mustParseSelect(t, q)
}

// TestParseOperatorPrecedence pins how the operator levels bind: OR
// looser than AND, comparison looser than the additive operators, those
// looser than the multiplicative ones, each level folded from the left.
func TestParseOperatorPrecedence(t *testing.T) {
	sel := mustParseSelect(t, "SELECT a - b + c * d / e, f | g * h FROM t WHERE x = 1 OR y = 2 AND z = 3")
	for i, want := range []string{"((a - b) + ((c * d) / e))", "(f | (g * h))"} {
		if got := exprShape(sel.Columns[i].Expr); got != want {
			t.Errorf("column %d = %s, want %s", i, got, want)
		}
	}
	if got, want := exprShape(sel.Where), "((x = 1) OR ((y = 2) AND (z = 3)))"; got != want {
		t.Errorf("where = %s, want %s", got, want)
	}
}

// exprShape prints a tree of binary operators over names and literals,
// each operation in parentheses.
func exprShape(e Expr) string {
	switch e := e.(type) {
	case *BinaryExpr:
		return "(" + exprShape(e.Left) + " " + e.Op + " " + exprShape(e.Right) + ")"
	case *ColumnRef:
		return strings.Join(e.Parts, ".")
	case *Literal:
		return e.Text
	}
	return fmt.Sprintf("%T", e)
}

func TestParseNotLike(t *testing.T) {
	sel := mustParseSelect(t, "SELECT 1 FROM t WHERE name NOT LIKE 'x%'")
	u, ok := sel.Where.(*UnaryExpr)
	if !ok || u.Op != "NOT" {
		t.Fatalf("where = %+v", sel.Where)
	}
}

func TestParseNotIn(t *testing.T) {
	sel := mustParseSelect(t, "SELECT 1 FROM t WHERE x NOT IN (1, 2)")
	in := sel.Where.(*InExpr)
	if !in.Not || len(in.List) != 2 {
		t.Fatalf("in = %+v", in)
	}
}

func TestParseNotExists(t *testing.T) {
	sel := mustParseSelect(t, "SELECT 1 FROM t WHERE NOT EXISTS (SELECT 1 FROM u)")
	u := sel.Where.(*UnaryExpr)
	if _, ok := u.Expr.(*ExistsExpr); !ok {
		t.Fatalf("where = %+v", sel.Where)
	}
}

func TestParseUnaryMinusAndBitwise(t *testing.T) {
	sel := mustParseSelect(t, "SELECT -x, ~y, x & 8, x | 2, x ^ 3 FROM t")
	if len(sel.Columns) != 5 {
		t.Fatalf("columns = %d", len(sel.Columns))
	}
}

func TestParseModuloAndDivision(t *testing.T) {
	sel := mustParseSelect(t, "SELECT x % 2, x / 4 FROM t")
	if len(sel.Columns) != 2 {
		t.Fatal("columns")
	}
}

func TestParseStringConcat(t *testing.T) {
	mustParseSelect(t, "SELECT 'a' || name FROM t")
}

func TestParseAliasStarInExpression(t *testing.T) {
	sel := mustParseSelect(t, "SELECT count(p.*) FROM PhotoObj p")
	fc := sel.Columns[0].Expr.(*FuncCall)
	if len(fc.Args) != 1 {
		t.Fatalf("args = %d", len(fc.Args))
	}
}

func TestParseCountDistinct(t *testing.T) {
	sel := mustParseSelect(t, "SELECT COUNT(DISTINCT run) FROM PhotoObj")
	fc := sel.Columns[0].Expr.(*FuncCall)
	if !fc.Distinct {
		t.Fatal("DISTINCT flag missing")
	}
}

func TestParseDoubleDotName(t *testing.T) {
	// SQL Server allows db..table.
	sel := mustParseSelect(t, "SELECT 1 FROM mydb..results")
	tn := sel.From[0].(*TableName)
	if len(tn.Parts) != 2 {
		t.Fatalf("parts = %v", tn.Parts)
	}
}

func TestParseCreateView(t *testing.T) {
	stmt := mustParse(t, "CREATE VIEW v AS SELECT a FROM t")
	if stmt.(*CreateStmt).What != "VIEW" {
		t.Fatal("what")
	}
}

func TestParseCreateIndexVariants(t *testing.T) {
	for _, q := range []string{
		"CREATE INDEX ix ON t (a)",
		"CREATE UNIQUE INDEX ix ON t (a)",
	} {
		stmt := mustParse(t, q)
		if stmt.(*CreateStmt).What != "INDEX" {
			t.Fatalf("%q: what = %v", q, stmt.(*CreateStmt).What)
		}
	}
}

func TestParseCreateUnsupported(t *testing.T) {
	if _, err := Parse("CREATE DATABASE foo"); err == nil {
		t.Fatal("CREATE DATABASE is unsupported")
	}
}

func TestParseDropVariants(t *testing.T) {
	for _, q := range []string{"DROP VIEW v", "DROP INDEX ix", "DROP FUNCTION f", "DROP PROCEDURE p"} {
		mustParse(t, q)
	}
	if _, err := Parse("DROP DATABASE foo"); err == nil {
		t.Fatal("DROP DATABASE is unsupported")
	}
}

func TestParseAlterVariants(t *testing.T) {
	mustParse(t, "ALTER TABLE t ADD x int")
	if _, err := Parse("ALTER LOGIN x"); err == nil {
		t.Fatal("ALTER LOGIN is unsupported")
	}
}

func TestParseTruncate(t *testing.T) {
	stmt := mustParse(t, "TRUNCATE TABLE mydb.results")
	if stmt.(*DropStmt).What != "TRUNCATE" {
		t.Fatal("what")
	}
}

func TestParseInsertMissingSource(t *testing.T) {
	if _, err := Parse("INSERT INTO t (a)"); err == nil {
		t.Fatal("INSERT without VALUES/SELECT should fail")
	}
}

func TestParseUpdateMissingEquals(t *testing.T) {
	if _, err := Parse("UPDATE t SET a 1"); err == nil {
		t.Fatal("SET without = should fail")
	}
}

func TestParseDeleteWithoutWhere(t *testing.T) {
	stmt := mustParse(t, "DELETE FROM t")
	if stmt.(*DeleteStmt).Where != nil {
		t.Fatal("no where expected")
	}
}

func TestParseSemicolonOnly(t *testing.T) {
	if _, err := Parse(";;;"); err == nil {
		t.Fatal("semicolons only should be an empty statement error")
	}
}

func TestParseConcatenatedSelects(t *testing.T) {
	// SDSS logs sometimes concatenate statements without separators.
	stmts, err := Parse("SELECT 1 FROM a SELECT 2 FROM b")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("stmts = %d", len(stmts))
	}
}

func TestParseBlockCommentUnterminated(t *testing.T) {
	if _, err := Parse("SELECT 1 FROM t /* open comment"); err != nil {
		t.Fatal("unterminated comment should not break the lexer:", err)
	}
}

func TestParseErrorMessageIncludesPosition(t *testing.T) {
	_, err := Parse("SELECT * FROM")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("err = %T", err)
	}
	if pe.Error() == "" || pe.Pos < 0 {
		t.Fatalf("error = %+v", pe)
	}
}

func TestFeaturesHeuristicOnUnparsedNested(t *testing.T) {
	// Heuristic nestedness from SELECT count on unparseable input.
	f := ExtractFeatures("SELECT a FROM (SELECT b FROM (SELECT c FROM")
	if f.Parsed {
		t.Fatal("should not parse")
	}
	if f.NestednessLevel != 2 {
		t.Fatalf("heuristic nestedness = %d, want 2", f.NestednessLevel)
	}
}
