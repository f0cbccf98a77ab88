package sqlparse

import (
	"reflect"
	"testing"
)

// inspectLabel names a node for TestInspect's visit sequences.
func inspectLabel(e Expr) string {
	switch x := e.(type) {
	case *ColumnRef:
		return x.Name()
	case *Literal:
		return x.Text
	case *BinaryExpr:
		return x.Op
	case *UnaryExpr:
		return "unary" + x.Op
	case *FuncCall:
		return x.Name + "()"
	case *CastExpr:
		return "CAST"
	case *CaseExpr:
		return "CASE"
	case *InExpr:
		return "IN"
	case *BetweenExpr:
		return "BETWEEN"
	case *SubqueryExpr:
		return "SUBQUERY"
	case *ExistsExpr:
		return "EXISTS"
	case *StarExpr:
		return "*"
	}
	return "?"
}

// inspectSeq returns the labels Inspect hands f, in order; f returns
// false for the labels in prune.
func inspectSeq(t *testing.T, e Expr, prune ...string) []string {
	t.Helper()
	var seq []string
	Inspect(e, func(n Expr) bool {
		if n == nil {
			t.Fatal("Inspect passed f a nil expression")
		}
		l := inspectLabel(n)
		seq = append(seq, l)
		for _, p := range prune {
			if l == p {
				return false
			}
		}
		return true
	})
	return seq
}

// TestInspect holds Inspect to its contract over every expression kind:
// operands in source order, subqueries handed over but not entered, no
// operands of a node for which f returns false, and nil operands (a
// CASE without operand or ELSE) skipped.
func TestInspect(t *testing.T) {
	sel := mustParseSelect(t, "SELECT CASE a WHEN b + c THEN f(d, CAST(e AS int)) ELSE -g END FROM t"+
		" WHERE h IN (i, j) AND k BETWEEN l AND m OR EXISTS (SELECT n FROM u)"+
		" OR o IN (SELECT p FROM v) OR (SELECT q FROM w) > 1 OR COUNT(*) + z(u.*) > 0")
	item, where := sel.Columns[0].Expr, sel.Where

	for _, c := range []struct {
		name  string
		e     Expr
		prune []string
		want  []string
	}{
		{"case in source order", item, nil,
			[]string{"CASE", "a", "+", "b", "c", "f()", "d", "CAST", "e", "unary-", "g"}},
		{"predicates in source order, subqueries not entered", where, nil,
			[]string{"OR", "OR", "OR", "OR", "AND", "IN", "h", "i", "j", "BETWEEN", "k", "l", "m",
				"EXISTS", "IN", "o", ">", "SUBQUERY", "1", ">", "+", "COUNT()", "z()", "*", "0"}},
		{"false prunes a node's operands", where, []string{"AND", "IN", ">"},
			[]string{"OR", "OR", "OR", "OR", "AND", "EXISTS", "IN", ">", ">"}},
		{"false prunes case, function and cast", item, []string{"+", "f()"},
			[]string{"CASE", "a", "+", "f()", "unary-", "g"}},
		{"case without operand or else", mustParseSelect(t, "SELECT CASE WHEN x THEN y END FROM t").Columns[0].Expr, nil,
			[]string{"CASE", "x", "y"}},
		{"hand-built case without operand or else", &CaseExpr{Whens: []CaseWhen{{When: &ColumnRef{Parts: []string{"x"}}, Then: &Literal{Text: "1"}}}}, nil,
			[]string{"CASE", "x", "1"}},
		{"nil expression", nil, nil, nil},
	} {
		if got := inspectSeq(t, c.e, c.prune...); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got  %q\n want %q", c.name, got, c.want)
		}
	}
}
