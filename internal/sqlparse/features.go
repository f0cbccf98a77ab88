package sqlparse

import (
	"strings"
	"unicode"

	"repro/internal/sqllex"
)

// Features holds the ten syntactic properties of a query statement
// defined in Section 4.3.1 of the paper.
type Features struct {
	NumChars            int  // 1. characters in the statement
	NumWords            int  // 2. word tokens (digits -> <DIGIT>)
	NumFunctions        int  // 3. function calls
	NumJoins            int  // 4. explicit join operators
	NumTables           int  // 5. unique table names
	NumSelectColumns    int  // 6. unique column names in select lists
	NumPredicates       int  // 7. logical conditions (WHERE/ON/HAVING atoms)
	NumPredicateColumns int  // 8. column references inside predicates
	NestednessLevel     int  // 9. maximum subquery depth
	NestedAggregation   bool // 10. a nested query uses an aggregate
	Parsed              bool // statement parsed successfully
	StatementType       string
}

// Vector returns the feature values as float64s in the fixed order used
// by the workload analysis (histograms and the Figure 7 correlation
// matrix).
func (f Features) Vector() []float64 {
	agg := 0.0
	if f.NestedAggregation {
		agg = 1
	}
	return []float64{
		float64(f.NumChars), float64(f.NumWords), float64(f.NumFunctions),
		float64(f.NumJoins), float64(f.NumTables), float64(f.NumSelectColumns),
		float64(f.NumPredicates), float64(f.NumPredicateColumns),
		float64(f.NestednessLevel), agg,
	}
}

// FeatureNames are the display names of Vector elements, matching the
// axis labels of Figures 3 and 4.
var FeatureNames = []string{
	"Number of characters", "Number of words", "Number of functions",
	"Number of joins", "Number of tables", "Number of select columns",
	"Number of predicates", "Number of predicate columns",
	"Nestedness level", "Nested aggregation",
}

// ExtractFeatures computes the ten syntactic properties for a raw
// statement. When the statement does not parse, the character/word
// counts are still exact and the structural counts fall back to
// token-level heuristics, mirroring how the paper's ANTLR pipeline
// degrades on malformed entries.
func ExtractFeatures(query string) Features {
	st := borrowToks(query)
	defer releaseToks(st)
	return featuresOf(query, st.toks)
}

// featuresOf is ExtractFeatures over query's lexed tokens.
func featuresOf(query string, toks []Token) Features {
	words := sqllex.Words(query)
	f := Features{
		NumChars:      countNonSpaceChars(query),
		NumWords:      len(words),
		StatementType: sqllex.StatementType(words),
	}
	stmts, err := parseTokens(toks)
	if err != nil {
		heuristicStructure(toks, &f)
		return f
	}
	f.Parsed = true
	w := &featureWalker{
		tables:     map[string]bool{},
		selectCols: map[string]bool{},
	}
	for _, stmt := range stmts {
		w.walkStatement(stmt, 0)
	}
	f.NumFunctions = w.functions
	f.NumJoins = w.joins
	f.NumTables = len(w.tables)
	f.NumSelectColumns = len(w.selectCols)
	f.NumPredicates = w.predicates
	f.NumPredicateColumns = w.predicateCols
	f.NestednessLevel = w.maxDepth
	f.NestedAggregation = w.nestedAgg
	return f
}

func countNonSpaceChars(query string) int {
	n := 0
	for _, r := range query {
		if !unicode.IsSpace(r) {
			n++
		}
	}
	return n
}

// heuristicStructure estimates structural counts from tokens when the
// parser fails, so that workload analysis covers every entry.
func heuristicStructure(toks []Token, f *Features) {
	for i, t := range toks {
		switch t.Kind {
		case TokIdent:
			if strings.EqualFold(t.Text, "JOIN") {
				f.NumJoins++
			}
			if i+1 < len(toks) && toks[i+1].Kind == TokLParen && !sqllex.IsKeyword(t.Text) {
				f.NumFunctions++
			}
		case TokOperator:
			if isComparison(t.Text) {
				f.NumPredicates++
			}
		}
	}
	// Parenthesis depth would over-count nestedness (arithmetic
	// grouping); report only depth attributable to SELECT keywords.
	selects := 0
	for _, t := range toks {
		if t.IsKeyword("SELECT") {
			selects++
		}
	}
	if selects > 1 {
		f.NestednessLevel = selects - 1
	}
}

type featureWalker struct {
	tables        map[string]bool
	selectCols    map[string]bool
	functions     int
	joins         int
	predicates    int
	predicateCols int
	maxDepth      int
	nestedAgg     bool
}

func (w *featureWalker) walkStatement(stmt Statement, depth int) {
	switch s := stmt.(type) {
	case *SelectStmt:
		w.walkSelect(s, depth)
	case *InsertStmt:
		w.addTable(s.Table)
		if s.Select != nil {
			w.walkSelect(s.Select, depth)
		}
	case *UpdateStmt:
		w.addTable(s.Table)
		for _, set := range s.Sets {
			w.walkExpr(set.Value, depth, false)
		}
		if s.Where != nil {
			w.walkPredicate(s.Where, depth)
		}
	case *DeleteStmt:
		w.addTable(s.Table)
		if s.Where != nil {
			w.walkPredicate(s.Where, depth)
		}
	case *CreateStmt:
		w.addTable(s.Name)
	case *DropStmt:
		w.addTable(s.Name)
	case *AlterStmt:
		w.addTable(s.Name)
	case *ExecStmt:
		w.functions++
		for _, arg := range s.Args {
			w.walkExpr(arg, depth, false)
		}
	}
}

func (w *featureWalker) walkSelect(sel *SelectStmt, depth int) {
	if depth > w.maxDepth {
		w.maxDepth = depth
	}
	for _, item := range sel.Columns {
		if item.Star {
			continue
		}
		w.collectSelectColumns(item.Expr)
		w.walkExpr(item.Expr, depth, false)
	}
	for _, ref := range sel.From {
		w.walkTableRef(ref, depth)
	}
	if sel.Where != nil {
		w.walkPredicate(sel.Where, depth)
	}
	for _, g := range sel.GroupBy {
		w.walkExpr(g, depth, false)
	}
	if sel.Having != nil {
		w.walkPredicate(sel.Having, depth)
	}
	for _, o := range sel.OrderBy {
		w.walkExpr(o.Expr, depth, false)
	}
	if sel.Next != nil {
		w.walkSelect(sel.Next, depth)
	}
}

// collectSelectColumns records the columns a select-list expression
// names, without descending into IN, BETWEEN or subqueries.
func (w *featureWalker) collectSelectColumns(e Expr) {
	Inspect(e, func(n Expr) bool {
		switch x := n.(type) {
		case *ColumnRef:
			w.selectCols[strings.ToLower(x.Name())] = true
		case *InExpr, *BetweenExpr:
			return false
		}
		return true
	})
}

func (w *featureWalker) walkTableRef(ref TableRef, depth int) {
	switch r := ref.(type) {
	case *TableName:
		w.addTable(r)
	case *JoinRef:
		w.joins++
		w.walkTableRef(r.Left, depth)
		w.walkTableRef(r.Right, depth)
		if r.On != nil {
			w.walkPredicate(r.On, depth)
		}
	case *SubqueryRef:
		w.walkSelect(r.Select, depth+1)
	}
}

func (w *featureWalker) addTable(name *TableName) {
	if name == nil || len(name.Parts) == 0 {
		return
	}
	w.tables[strings.ToLower(name.Parts[len(name.Parts)-1])] = true
}

// walkPredicate counts atomic logical conditions and the column
// references inside them, descending into subqueries at depth+1.
func (w *featureWalker) walkPredicate(e Expr, depth int) {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			w.walkPredicate(x.Left, depth)
			w.walkPredicate(x.Right, depth)
			return
		case "=", "<", ">", "<=", ">=", "<>", "!=", "!<", "!>", "LIKE":
			w.predicates++
			w.countPredicateColumns(x.Left)
			w.countPredicateColumns(x.Right)
			w.walkExpr(x.Left, depth, true)
			w.walkExpr(x.Right, depth, true)
			return
		}
		w.walkExpr(x, depth, true)
	case *UnaryExpr:
		if x.Op == "IS NULL" || x.Op == "IS NOT NULL" {
			w.predicates++
			w.countPredicateColumns(x.Expr)
			w.walkExpr(x.Expr, depth, true)
			return
		}
		w.walkPredicate(x.Expr, depth)
	case *BetweenExpr:
		w.predicates++
		w.countPredicateColumns(x.Expr)
		w.countPredicateColumns(x.Lo)
		w.countPredicateColumns(x.Hi)
		w.walkExpr(x.Expr, depth, true)
		w.walkExpr(x.Lo, depth, true)
		w.walkExpr(x.Hi, depth, true)
	case *InExpr:
		w.predicates++
		w.countPredicateColumns(x.Expr)
		w.walkExpr(x.Expr, depth, true)
		for _, item := range x.List {
			w.walkExpr(item, depth, true)
		}
		if x.Subquery != nil {
			w.walkSelect(x.Subquery, depth+1)
		}
	case *ExistsExpr:
		w.predicates++
		w.walkSelect(x.Subquery, depth+1)
	default:
		w.walkExpr(e, depth, true)
	}
}

// countPredicateColumns counts column references within a predicate
// operand without descending into IN, BETWEEN or subqueries (those
// columns belong to their own predicates).
func (w *featureWalker) countPredicateColumns(e Expr) {
	Inspect(e, func(n Expr) bool {
		switch n.(type) {
		case *ColumnRef:
			w.predicateCols++
		case *InExpr, *BetweenExpr:
			return false
		}
		return true
	})
}

// walkExpr visits general expressions, counting function calls and
// descending into subqueries. inPredicate suppresses double-counting of
// predicates handled by walkPredicate.
func (w *featureWalker) walkExpr(e Expr, depth int, inPredicate bool) {
	Inspect(e, func(n Expr) bool {
		switch x := n.(type) {
		case *BinaryExpr:
			if !inPredicate && (x.Op == "AND" || x.Op == "OR" || isComparison(x.Op) || x.Op == "LIKE") {
				w.walkPredicate(x, depth)
				return false
			}
		case *FuncCall:
			w.functions++
			if depth > 0 && sqllex.IsAggregateFunction(x.BareName) {
				w.nestedAgg = true
			}
		case *CaseExpr:
			w.walkExpr(x.Operand, depth, inPredicate)
			for _, wh := range x.Whens {
				w.walkPredicate(wh.When, depth)
				w.walkExpr(wh.Then, depth, inPredicate)
			}
			w.walkExpr(x.Else, depth, inPredicate)
			return false
		case *SubqueryExpr:
			w.walkSelect(x.Select, depth+1)
		case *ExistsExpr:
			w.walkSelect(x.Subquery, depth+1)
		case *InExpr:
			if x.Subquery != nil {
				w.walkSelect(x.Subquery, depth+1)
			}
		}
		return true
	})
}
