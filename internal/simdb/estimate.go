package simdb

import (
	"math"
	"strings"

	"repro/internal/sqlparse"
)

// Cost-model constants, in CPU-seconds. They are calibrated so that the
// synthetic SDSS workload reproduces the label magnitudes of Figure 6:
// index point-lookups cost milliseconds, full scans of PhotoObj-sized
// tables cost tens of seconds, and row-wise function evaluation over a
// large scan (the Figure 1b anti-pattern) costs thousands of seconds.
const (
	cpuPerRowScan   = 2e-8   // per row examined in a scan
	cpuPerRowOut    = 5e-9   // per output row per column
	cpuPerPredicate = 8e-9   // per row per predicate evaluated
	cpuHashJoinRow  = 2.5e-8 // per row hashed or probed
	cpuSortRowLog   = 2e-8   // per row per log2(rows) in a sort
	cpuAggRow       = 1.5e-8
	cpuIndexSeek    = 1e-5 // fixed cost of one B-tree descent
	cpuStatementMin = 1.2e-3
)

// defaultTableRows is used for opaque relations (user MyDB tables).
const defaultTableRows = 50_000

// planEstimate is the estimator's view of one relational operator tree.
type planEstimate struct {
	Rows  float64 // output cardinality
	Cost  float64 // CPU seconds
	Width float64 // output columns
}

// estimator walks SELECT trees computing cardinality and cost, and
// binds every name it meets in the same walk: the only walk over a
// SELECT. The same walker serves the "true" execution simulation
// (accurate statistics, function costs included) and, with Uniform set,
// the `opt` baseline's imprecise analytic model (uniformity assumptions,
// function costs ignored). A statement that fails binding is still
// estimated, because the baseline costs it.
type estimator struct {
	cat *Catalog
	// Uniform switches to the optimizer's simplified assumptions:
	// fixed default selectivities and no row-wise function costs.
	Uniform bool
	// err is the first name that failed to bind (see Catalog.plan).
	err error
	// bindOnly marks the walk that binds a clause the cost model never
	// reads (bind): it writes no relation state, so the subqueries it
	// estimates move no other estimate.
	bindOnly bool
}

// relation is one bound FROM-list entry.
type relation struct {
	alias   string          // lower-cased by relSet.add
	table   *Table          // nil for derived relations
	cols    map[string]bool // a derived relation's exported columns; nil means any
	rows    float64         // current cardinality
	indexed bool            // an index-seek predicate applies
	seekSel float64         // selectivity of the seek predicate
}

// relSet is the scope of one SELECT: the relations visible to binding
// and predicate analysis, in FROM order, chained to the enclosing query
// for correlated references.
type relSet struct {
	parent *relSet
	rels   []*relation
}

func newRelSet(parent *relSet) *relSet {
	return &relSet{parent: parent}
}

func (rs *relSet) add(r *relation) {
	r.alias = strings.ToLower(r.alias)
	rs.rels = append(rs.rels, r)
}

// lookup returns the relation the estimate reads for alias: the last one
// added under it at the innermost level that has one. Binding resolves
// a collision differently (bound).
func (rs *relSet) lookup(alias string) *relation {
	alias = strings.ToLower(alias)
	for s := rs; s != nil; s = s.parent {
		for i := len(s.rels) - 1; i >= 0; i-- {
			if s.rels[i].alias == alias {
				return s.rels[i]
			}
		}
	}
	return nil
}

// column resolves a column reference to (relation, column stats); both
// may be nil for derived or unknown references.
func (rs *relSet) column(ref *sqlparse.ColumnRef) (*relation, *Column) {
	if len(ref.Parts) >= 2 {
		rel := rs.lookup(ref.Parts[len(ref.Parts)-2])
		if rel == nil {
			return nil, nil
		}
		if rel.table == nil {
			return rel, nil
		}
		return rel, rel.table.Column(ref.Name())
	}
	for s := rs; s != nil; s = s.parent {
		for _, r := range s.rels {
			if r.table == nil {
				continue
			}
			if c := r.table.Column(ref.Name()); c != nil {
				return r, c
			}
		}
	}
	return nil, nil
}

// predInfo accumulates the effects of a predicate tree.
type predInfo struct {
	selectivity float64
	funcCostRow float64 // per-row function cost within predicates
	subCost     float64 // cost of evaluating subqueries
	predicates  int
}

// EstimateSelect computes the plan estimate for a SELECT statement.
func (e *estimator) estimateSelect(sel *sqlparse.SelectStmt, parent *relSet) planEstimate {
	rs := newRelSet(parent)
	var est planEstimate
	est.Rows = 1

	// Bind and size the FROM list.
	joinCost := 0.0
	for _, ref := range sel.From {
		p := e.estimateTableRef(ref, rs)
		est.Rows *= math.Max(p.Rows, 1)
		joinCost += p.Cost
	}

	// Predicate analysis over WHERE, which binds after the select list:
	// its first failure waits until the list is bound.
	bound := e.err
	e.err = nil
	where := predInfo{selectivity: 1}
	if sel.Where != nil {
		where = e.analyzePredicate(sel.Where, rs)
	}
	whereErr := e.err
	e.err = bound

	est.Rows *= clamp01(where.selectivity)

	// Scan costs: indexed relations seek, others scan fully.
	maxScan := 0.0
	for _, r := range rs.rels {
		rows := r.rows
		if r.indexed && r.table != nil {
			seekRows := math.Max(r.rows*r.seekSel, 1)
			est.Cost += cpuIndexSeek + seekRows*cpuPerRowScan
			maxScan = math.Max(maxScan, seekRows)
			continue
		}
		est.Cost += rows * cpuPerRowScan
		maxScan = math.Max(maxScan, rows)
	}
	est.Cost += joinCost
	est.Cost += float64(where.predicates) * maxScan * cpuPerPredicate
	if !e.Uniform {
		est.Cost += where.funcCostRow * maxScan
	}
	est.Cost += where.subCost

	// Aggregation and grouping.
	hasAggregate := false
	selectFuncCost := 0.0
	width := 0.0
	for _, item := range sel.Columns {
		if item.Star {
			width += e.starWidth(rs)
			continue
		}
		width++
		fi := e.exprFuncInfo(item.Expr, rs)
		selectFuncCost += fi.costPerRow
		est.Cost += fi.subCost
		if fi.hasAggregate {
			hasAggregate = true
		}
	}
	if e.err == nil {
		e.err = whereErr
	}
	if width == 0 {
		width = 1
	}
	est.Width = width

	switch {
	case len(sel.GroupBy) > 0:
		groups := e.groupCount(sel.GroupBy, rs, est.Rows)
		est.Cost += est.Rows * cpuAggRow
		est.Rows = groups
		if sel.Having != nil {
			hv := e.analyzePredicate(sel.Having, rs)
			est.Rows *= clamp01(hv.selectivity)
			est.Cost += hv.subCost
		}
	case hasAggregate:
		est.Cost += est.Rows * cpuAggRow
		est.Rows = 1
	}
	// The cost model reads neither HAVING without GROUP BY nor ORDER BY:
	// they only bind.
	if len(sel.GroupBy) == 0 && sel.Having != nil && e.err == nil {
		e.err = e.bind(sel.Having, rs)
	}
	for _, o := range sel.OrderBy {
		if e.err != nil {
			break
		}
		// ORDER BY may reference select-list aliases; tolerate
		// resolution failures against aliases only.
		err := e.bind(o.Expr, rs)
		if se, ok := err.(*SemanticError); ok && se.Kind == "column" && selectListAlias(sel, se.Name) {
			continue
		}
		e.err = err
	}

	if sel.Distinct {
		// Distinct output: heuristic reduction.
		est.Rows = math.Min(est.Rows, math.Max(math.Sqrt(est.Rows)*10, 1))
		est.Cost += est.Rows * cpuAggRow
	}

	// Row-wise select-list functions are evaluated per output row.
	if !e.Uniform {
		est.Cost += selectFuncCost * est.Rows
	}

	if len(sel.OrderBy) > 0 && est.Rows > 1 {
		est.Cost += est.Rows * math.Log2(est.Rows+2) * cpuSortRowLog
	}

	if sel.Top != nil {
		limit := sel.Top.Count
		if sel.Top.Percent {
			limit = est.Rows * sel.Top.Count / 100
		}
		if limit >= 0 {
			est.Rows = math.Min(est.Rows, math.Max(limit, 0))
		}
	}

	est.Cost += est.Rows * width * cpuPerRowOut

	if sel.Next != nil {
		next := e.estimateSelect(sel.Next, parent)
		switch sel.SetOp {
		case "UNION":
			est.Rows = (est.Rows + next.Rows) * 0.9 // dedup overlap
			est.Cost += next.Cost + (est.Rows+next.Rows)*cpuAggRow
		case "UNION ALL":
			est.Rows += next.Rows
			est.Cost += next.Cost
		case "INTERSECT":
			est.Rows = math.Min(est.Rows, next.Rows) * 0.5
			est.Cost += next.Cost + (est.Rows+next.Rows)*cpuAggRow
		case "EXCEPT":
			est.Rows = est.Rows * 0.5
			est.Cost += next.Cost + (est.Rows+next.Rows)*cpuAggRow
		}
	}

	est.Rows = math.Max(est.Rows, 0)
	return est
}

func (e *estimator) starWidth(rs *relSet) float64 {
	w := 0.0
	for _, r := range rs.rels {
		if r.table != nil {
			w += float64(len(r.table.Columns))
		} else {
			w += 8
		}
	}
	if w == 0 {
		return 8
	}
	return w
}

func (e *estimator) estimateTableRef(ref sqlparse.TableRef, rs *relSet) planEstimate {
	switch r := ref.(type) {
	case *sqlparse.TableName:
		rel := &relation{alias: refAlias(r)}
		t := e.cat.Table(r.Parts[len(r.Parts)-1])
		if t != nil {
			rel.table = t
			rel.rows = float64(t.Rows)
		} else {
			// MyDB/user tables are outside the shared catalog: an
			// opaque relation accepting any column.
			if e.err == nil && !isUserSpace(r) {
				e.err = &SemanticError{Kind: "table", Name: tableDisplay(r)}
			}
			rel.rows = defaultTableRows
		}
		rs.add(rel)
		return planEstimate{Rows: rel.rows}
	case *sqlparse.JoinRef:
		left := e.estimateTableRef(r.Left, rs)
		right := e.estimateTableRef(r.Right, rs)
		p := planEstimate{Rows: left.Rows * right.Rows, Cost: left.Cost + right.Cost}
		if r.On != nil {
			info := e.analyzePredicate(r.On, rs)
			p.Rows *= clamp01(info.selectivity)
			p.Cost += info.subCost
			if !e.Uniform {
				p.Cost += info.funcCostRow * math.Max(left.Rows, right.Rows)
			}
		}
		// Hash join build + probe.
		p.Cost += (left.Rows + right.Rows) * cpuHashJoinRow
		return p
	case *sqlparse.SubqueryRef:
		inner := e.estimateSelect(r.Select, rs.parent)
		alias := r.Alias
		if alias == "" {
			alias = "_derived"
		}
		rs.add(&relation{alias: alias, cols: exportedColumns(r.Select), rows: inner.Rows})
		return inner
	}
	return planEstimate{Rows: 1}
}

func refAlias(t *sqlparse.TableName) string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Parts[len(t.Parts)-1]
}

// Default selectivities. The Uniform (optimizer) variants are the
// textbook constants; the accurate variants use column statistics when
// available.
const (
	defaultEqSel    = 0.005
	defaultRangeSel = 1.0 / 3
	defaultLikeSel  = 0.08
	optimizerEqSel  = 0.01
	optimizerRange  = 0.30
)

func (e *estimator) analyzePredicate(expr sqlparse.Expr, rs *relSet) predInfo {
	switch x := expr.(type) {
	case *sqlparse.BinaryExpr:
		switch x.Op {
		case "AND":
			l := e.analyzePredicate(x.Left, rs)
			r := e.analyzePredicate(x.Right, rs)
			return predInfo{
				selectivity: l.selectivity * r.selectivity,
				funcCostRow: l.funcCostRow + r.funcCostRow,
				subCost:     l.subCost + r.subCost,
				predicates:  l.predicates + r.predicates,
			}
		case "OR":
			l := e.analyzePredicate(x.Left, rs)
			r := e.analyzePredicate(x.Right, rs)
			return predInfo{
				selectivity: clamp01(l.selectivity + r.selectivity - l.selectivity*r.selectivity),
				funcCostRow: l.funcCostRow + r.funcCostRow,
				subCost:     l.subCost + r.subCost,
				predicates:  l.predicates + r.predicates,
			}
		default:
			return e.analyzeComparison(x, rs)
		}
	case *sqlparse.UnaryExpr:
		switch x.Op {
		case "NOT":
			inner := e.analyzePredicate(x.Expr, rs)
			inner.selectivity = clamp01(1 - inner.selectivity)
			return inner
		case "IS NULL":
			sel := 0.02
			if _, col := e.columnOf(x.Expr, rs); col != nil && !e.Uniform {
				sel = math.Max(col.NullFrac, 0.001)
			}
			fi := e.exprFuncInfo(x.Expr, rs)
			return predInfo{selectivity: sel, funcCostRow: fi.costPerRow, subCost: fi.subCost, predicates: 1}
		case "IS NOT NULL":
			sel := 0.98
			if _, col := e.columnOf(x.Expr, rs); col != nil && !e.Uniform {
				sel = clamp01(1 - col.NullFrac)
			}
			fi := e.exprFuncInfo(x.Expr, rs)
			return predInfo{selectivity: sel, funcCostRow: fi.costPerRow, subCost: fi.subCost, predicates: 1}
		default:
			return e.analyzePredicate(x.Expr, rs)
		}
	case *sqlparse.BetweenExpr:
		fi := e.exprFuncInfo(x.Expr, rs)
		fiLo := e.exprFuncInfo(x.Lo, rs)
		fiHi := e.exprFuncInfo(x.Hi, rs)
		info := predInfo{
			funcCostRow: fi.costPerRow + fiLo.costPerRow + fiHi.costPerRow,
			subCost:     fi.subCost + fiLo.subCost + fiHi.subCost,
			predicates:  1,
		}
		info.selectivity = e.rangeSelectivity(x.Expr, x.Lo, x.Hi, rs)
		if x.Not {
			info.selectivity = clamp01(1 - info.selectivity)
		}
		return info
	case *sqlparse.InExpr:
		info := predInfo{predicates: 1}
		fi := e.exprFuncInfo(x.Expr, rs)
		info.funcCostRow += fi.costPerRow
		info.subCost += fi.subCost
		switch {
		case x.Subquery != nil:
			sub := e.estimateSelect(x.Subquery, rs)
			info.subCost += sub.Cost
			info.selectivity = 0.3
		default:
			for _, item := range x.List {
				if e.err == nil {
					e.err = e.bind(item, rs)
				}
			}
			k := float64(len(x.List))
			if _, col := e.columnOf(x.Expr, rs); col != nil && col.Distinct > 0 && !e.Uniform {
				info.selectivity = clamp01(k / float64(col.Distinct))
			} else {
				info.selectivity = clamp01(k * optimizerEqSel)
			}
		}
		if x.Not {
			info.selectivity = clamp01(1 - info.selectivity)
		}
		return info
	case *sqlparse.ExistsExpr:
		sub := e.estimateSelect(x.Subquery, rs)
		sel := 0.7
		if x.Not {
			sel = 0.3
		}
		return predInfo{selectivity: sel, subCost: sub.Cost, predicates: 1}
	case *sqlparse.SubqueryExpr:
		sub := e.estimateSelect(x.Select, rs)
		return predInfo{selectivity: 0.5, subCost: sub.Cost, predicates: 1}
	default:
		// Bare expression used as a condition.
		fi := e.exprFuncInfo(expr, rs)
		return predInfo{selectivity: defaultRangeSel, funcCostRow: fi.costPerRow, subCost: fi.subCost, predicates: 1}
	}
}

// analyzeComparison handles col-op-value, col-op-col (join), and
// expression comparisons, including index detection.
func (e *estimator) analyzeComparison(x *sqlparse.BinaryExpr, rs *relSet) predInfo {
	info := predInfo{predicates: 1, selectivity: defaultRangeSel}
	fiL := e.exprFuncInfo(x.Left, rs)
	fiR := e.exprFuncInfo(x.Right, rs)
	info.funcCostRow = fiL.costPerRow + fiR.costPerRow
	info.subCost = fiL.subCost + fiR.subCost

	if x.Op == "LIKE" {
		info.selectivity = defaultLikeSel
		if lit, ok := x.Right.(*sqlparse.Literal); ok && strings.HasPrefix(strings.Trim(lit.Text, "'"), "%") {
			info.selectivity = 0.15
		}
		return info
	}

	lRel, lCol := e.columnOf(x.Left, rs)
	rRel, rCol := e.columnOf(x.Right, rs)

	// Join predicate: columns of two different relations.
	if lCol != nil && rCol != nil && lRel != rRel && x.Op == "=" {
		d := math.Max(float64(lCol.Distinct), float64(rCol.Distinct))
		if e.Uniform {
			d = math.Max(math.Min(float64(lCol.Distinct), float64(rCol.Distinct)), 1)
		}
		if d < 1 {
			d = 1
		}
		info.selectivity = 1 / d
		return info
	}

	// Column vs literal/expression.
	col := lCol
	rel := lRel
	var lit *sqlparse.Literal
	if l, ok := x.Right.(*sqlparse.Literal); ok {
		lit = l
	}
	if col == nil {
		col = rCol
		rel = rRel
		if l, ok := x.Left.(*sqlparse.Literal); ok {
			lit = l
		}
	}

	switch x.Op {
	case "=":
		if e.Uniform {
			info.selectivity = optimizerEqSel
		} else if col != nil && col.Distinct > 0 {
			info.selectivity = 1 / float64(col.Distinct)
		} else {
			info.selectivity = defaultEqSel
		}
		// Index-seek detection: selective equality on a real column
		// with literal operand.
		if !e.bindOnly && rel != nil && rel.table != nil && col != nil && lit != nil &&
			float64(col.Distinct) > float64(rel.table.Rows)/50 {
			rel.indexed = true
			rel.seekSel = info.selectivity
		}
	case "<", ">", "<=", ">=", "!<", "!>":
		if e.Uniform {
			info.selectivity = optimizerRange
		} else if col != nil && lit != nil && lit.Kind == "number" && col.Max > col.Min {
			frac := (lit.Value - col.Min) / (col.Max - col.Min)
			frac = clamp01(frac)
			if x.Op == "<" || x.Op == "<=" || x.Op == "!>" {
				info.selectivity = math.Max(frac, 0.0005)
			} else {
				info.selectivity = math.Max(1-frac, 0.0005)
			}
		} else {
			info.selectivity = defaultRangeSel
		}
	case "<>", "!=":
		if col != nil && col.Distinct > 0 && !e.Uniform {
			info.selectivity = clamp01(1 - 1/float64(col.Distinct))
		} else {
			info.selectivity = 0.95
		}
	}
	return info
}

// rangeSelectivity estimates x BETWEEN lo AND hi.
func (e *estimator) rangeSelectivity(expr, lo, hi sqlparse.Expr, rs *relSet) float64 {
	if e.Uniform {
		return optimizerRange * optimizerRange * 4 // fixed guess
	}
	_, col := e.columnOf(expr, rs)
	loV, loOK := constValue(lo)
	hiV, hiOK := constValue(hi)
	if col != nil && loOK && hiOK && col.Max > col.Min {
		frac := (hiV - loV) / (col.Max - col.Min)
		return clamp01(math.Max(frac, 1e-6))
	}
	return 0.05
}

// constValue evaluates constant arithmetic (e.g. 156.52-0.2) to a value.
func constValue(e sqlparse.Expr) (float64, bool) {
	switch x := e.(type) {
	case *sqlparse.Literal:
		if x.Kind == "number" {
			return x.Value, true
		}
	case *sqlparse.UnaryExpr:
		if v, ok := constValue(x.Expr); ok {
			if x.Op == "-" {
				return -v, true
			}
			return v, true
		}
	case *sqlparse.BinaryExpr:
		l, lok := constValue(x.Left)
		r, rok := constValue(x.Right)
		if lok && rok {
			switch x.Op {
			case "+":
				return l + r, true
			case "-":
				return l - r, true
			case "*":
				return l * r, true
			case "/":
				if r != 0 {
					return l / r, true
				}
			}
		}
	}
	return 0, false
}

// columnOf digs the principal column reference out of an operand
// expression (possibly wrapped in arithmetic or functions): the first
// column in source order that resolves to column statistics, not
// looking inside CASE, IN, BETWEEN or subqueries.
func (e *estimator) columnOf(expr sqlparse.Expr, rs *relSet) (rel *relation, col *Column) {
	sqlparse.Inspect(expr, func(n sqlparse.Expr) bool {
		if col != nil {
			return false
		}
		switch x := n.(type) {
		case *sqlparse.ColumnRef:
			if r, c := rs.column(x); c != nil {
				rel, col = r, c
			}
		case *sqlparse.CaseExpr, *sqlparse.InExpr, *sqlparse.BetweenExpr:
			return false
		}
		return col == nil
	})
	return rel, col
}

// funcInfo describes the function-evaluation cost of an expression.
type funcInfo struct {
	costPerRow   float64
	subCost      float64
	hasAggregate bool
}

// exprFuncInfo sums the row-wise function and cast costs of expr and
// the cost of its subqueries, in source order, binding every column and
// function it meets. An IN's tested expression is costed before its
// subquery.
func (e *estimator) exprFuncInfo(expr sqlparse.Expr, rs *relSet) funcInfo {
	var fi funcInfo
	var visit func(sqlparse.Expr) bool
	visit = func(n sqlparse.Expr) bool {
		switch x := n.(type) {
		case *sqlparse.ColumnRef:
			if e.err == nil {
				e.err = rs.bindColumn(x)
			}
		case *sqlparse.FuncCall:
			if f := e.cat.Function(x.BareName); f != nil {
				fi.costPerRow += f.CostPerCall
				if f.Aggregate {
					fi.hasAggregate = true
				}
			} else {
				fi.costPerRow += 1e-6 // unknown function, nominal cost
				if e.err == nil {
					e.err = &SemanticError{Kind: "function", Name: x.Name}
				}
			}
		case *sqlparse.CastExpr:
			fi.costPerRow += 4e-8
		case *sqlparse.SubqueryExpr:
			fi.subCost += e.estimateSelect(x.Select, rs).Cost
		case *sqlparse.ExistsExpr:
			fi.subCost += e.estimateSelect(x.Subquery, rs).Cost
		case *sqlparse.InExpr:
			if x.Subquery != nil {
				sqlparse.Inspect(x.Expr, visit)
				fi.subCost += e.estimateSelect(x.Subquery, rs).Cost
				return false
			}
		}
		return true
	}
	sqlparse.Inspect(expr, visit)
	return fi
}

// groupCount binds the GROUP BY expressions and estimates the number of
// groups they make.
func (e *estimator) groupCount(groupBy []sqlparse.Expr, rs *relSet, inputRows float64) float64 {
	product := 1.0
	for _, g := range groupBy {
		if e.err == nil {
			e.err = e.bind(g, rs)
		}
		if cr, ok := g.(*sqlparse.ColumnRef); ok {
			if _, col := rs.column(cr); col != nil && col.Distinct > 0 {
				product *= float64(col.Distinct)
				continue
			}
		}
		product *= 100 // default distinct guess
	}
	return math.Max(math.Min(product, inputRows), 1)
}

// bind binds the names of expr, in a clause the cost model never reads,
// and returns the first that fails. Its subqueries are estimated by a
// bindOnly walk, so they write no relation state.
func (e *estimator) bind(expr sqlparse.Expr, rs *relSet) error {
	b := estimator{cat: e.cat, bindOnly: true}
	b.exprFuncInfo(expr, rs)
	return b.err
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
