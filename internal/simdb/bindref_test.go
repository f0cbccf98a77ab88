package simdb_test

// The reference binder: the name resolution simdb ran as a walk of its
// own, separate from the cost estimator, before binding moved into the
// estimator's walk. FuzzExecute holds Catalog.Analyze to refAnalyze.

import (
	"strings"

	"repro/internal/simdb"
	"repro/internal/sqlparse"
)

// analyzer performs semantic analysis of a statement against a catalog.
type analyzer struct {
	cat *simdb.Catalog
}

// refAnalyze is Catalog.Analyze as it was before binding moved into the
// cost estimator's walk: it checks that every table, column, function,
// and procedure a statement references exists in the catalog, and
// returns nil on success or the first *SemanticError found.
func refAnalyze(c *simdb.Catalog, stmt sqlparse.Statement) error {
	a := &analyzer{cat: c}
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		_, err := a.analyzeSelect(s, nil)
		return err
	case *sqlparse.InsertStmt:
		// INSERT targets user-writable space (SDSS MyDB); accept the
		// target but validate a SELECT source.
		if s.Select != nil {
			_, err := a.analyzeSelect(s.Select, nil)
			return err
		}
		return nil
	case *sqlparse.UpdateStmt:
		t := a.lookupTable(s.Table)
		if t == nil && !isUserSpace(s.Table) {
			return &simdb.SemanticError{Kind: "table", Name: tableDisplay(s.Table)}
		}
		return nil
	case *sqlparse.DeleteStmt:
		t := a.lookupTable(s.Table)
		if t == nil && !isUserSpace(s.Table) {
			return &simdb.SemanticError{Kind: "table", Name: tableDisplay(s.Table)}
		}
		return nil
	case *sqlparse.CreateStmt, *sqlparse.AlterStmt:
		return nil // DDL in user space
	case *sqlparse.DropStmt:
		return nil
	case *sqlparse.ExecStmt:
		bare := s.Proc
		if i := strings.LastIndex(bare, "."); i >= 0 {
			bare = bare[i+1:]
		}
		if c.Procedure(bare) == nil {
			return &simdb.SemanticError{Kind: "procedure", Name: s.Proc}
		}
		return nil
	default:
		return nil
	}
}

// scope is the name-resolution environment of one SELECT, chained to
// enclosing scopes for correlated subqueries.
type scope struct {
	parent *scope
	// tables maps alias (or bare table name) -> catalog table; derived
	// tables map to nil with their column set in derived.
	tables  map[string]*simdb.Table
	derived map[string]map[string]bool // alias -> exported column names (nil = any)
	order   []string                   // resolution order for bare columns
}

func newScope(parent *scope) *scope {
	return &scope{
		parent:  parent,
		tables:  map[string]*simdb.Table{},
		derived: map[string]map[string]bool{},
	}
}

func (s *scope) addTable(alias string, t *simdb.Table) {
	key := strings.ToLower(alias)
	s.tables[key] = t
	s.order = append(s.order, key)
}

func (s *scope) addDerived(alias string, cols map[string]bool) {
	key := strings.ToLower(alias)
	s.derived[key] = cols
	s.order = append(s.order, key)
}

// resolveQualified resolves qualifier.column. It reports ok=false when
// the qualifier is unknown; col may be nil for derived tables.
func (s *scope) resolveQualified(qualifier, column string) (col *simdb.Column, ok bool) {
	key := strings.ToLower(qualifier)
	for sc := s; sc != nil; sc = sc.parent {
		if t, found := sc.tables[key]; found {
			if t == nil {
				return nil, true
			}
			c := t.Column(column)
			if c == nil {
				return nil, false
			}
			return c, true
		}
		if cols, found := sc.derived[key]; found {
			if cols == nil {
				return nil, true
			}
			return nil, cols[strings.ToLower(column)]
		}
	}
	return nil, false
}

// resolveBare resolves an unqualified column against every table in
// scope (innermost first).
func (s *scope) resolveBare(column string) (col *simdb.Column, ok bool) {
	for sc := s; sc != nil; sc = sc.parent {
		for _, key := range sc.order {
			if t := sc.tables[key]; t != nil {
				if c := t.Column(column); c != nil {
					return c, true
				}
				continue
			}
			if cols, found := sc.derived[key]; found {
				if cols == nil || cols[strings.ToLower(column)] {
					return nil, true
				}
			}
		}
	}
	return nil, false
}

// analyzeSelect resolves one SELECT and returns its scope.
func (a *analyzer) analyzeSelect(sel *sqlparse.SelectStmt, parent *scope) (*scope, error) {
	sc := newScope(parent)
	for _, ref := range sel.From {
		if err := a.bindTableRef(ref, sc); err != nil {
			return nil, err
		}
	}
	for _, item := range sel.Columns {
		if item.Star {
			continue
		}
		if err := a.checkExpr(item.Expr, sc); err != nil {
			return nil, err
		}
	}
	if sel.Where != nil {
		if err := a.checkExpr(sel.Where, sc); err != nil {
			return nil, err
		}
	}
	for _, g := range sel.GroupBy {
		if err := a.checkExpr(g, sc); err != nil {
			return nil, err
		}
	}
	if sel.Having != nil {
		if err := a.checkExpr(sel.Having, sc); err != nil {
			return nil, err
		}
	}
	for _, o := range sel.OrderBy {
		// ORDER BY may reference select-list aliases; tolerate
		// resolution failures against aliases only.
		if err := a.checkExpr(o.Expr, sc); err != nil {
			if se, ok := err.(*simdb.SemanticError); ok && se.Kind == "column" && selectListAlias(sel, se.Name) {
				continue
			}
			return nil, err
		}
	}
	if sel.Next != nil {
		if _, err := a.analyzeSelect(sel.Next, parent); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

func selectListAlias(sel *sqlparse.SelectStmt, name string) bool {
	for _, item := range sel.Columns {
		if strings.EqualFold(item.Alias, name) {
			return true
		}
	}
	return false
}

func (a *analyzer) bindTableRef(ref sqlparse.TableRef, sc *scope) error {
	switch r := ref.(type) {
	case *sqlparse.TableName:
		t := a.lookupTable(r)
		if t == nil {
			if isUserSpace(r) {
				// MyDB/user tables are outside the shared catalog; treat
				// as an opaque derived relation accepting any column.
				alias := r.Alias
				if alias == "" {
					alias = r.Parts[len(r.Parts)-1]
				}
				sc.addDerived(alias, nil)
				return nil
			}
			return &simdb.SemanticError{Kind: "table", Name: tableDisplay(r)}
		}
		if r.Alias != "" {
			sc.addTable(r.Alias, t)
		} else {
			sc.addTable(r.Parts[len(r.Parts)-1], t)
		}
		return nil
	case *sqlparse.JoinRef:
		if err := a.bindTableRef(r.Left, sc); err != nil {
			return err
		}
		if err := a.bindTableRef(r.Right, sc); err != nil {
			return err
		}
		if r.On != nil {
			return a.checkExpr(r.On, sc)
		}
		return nil
	case *sqlparse.SubqueryRef:
		if _, err := a.analyzeSelect(r.Select, sc.parent); err != nil {
			return err
		}
		cols := exportedColumns(r.Select)
		alias := r.Alias
		if alias == "" {
			alias = "_derived"
		}
		sc.addDerived(alias, cols)
		return nil
	}
	return nil
}

// exportedColumns lists the output column names of a SELECT; nil means
// "any column" (SELECT * passthrough).
func exportedColumns(sel *sqlparse.SelectStmt) map[string]bool {
	cols := map[string]bool{}
	for _, item := range sel.Columns {
		if item.Star {
			return nil
		}
		switch {
		case item.Alias != "":
			cols[strings.ToLower(item.Alias)] = true
		default:
			if cr, ok := item.Expr.(*sqlparse.ColumnRef); ok {
				cols[strings.ToLower(cr.Name())] = true
			}
		}
	}
	return cols
}

func (a *analyzer) lookupTable(name *sqlparse.TableName) *simdb.Table {
	if name == nil || len(name.Parts) == 0 {
		return nil
	}
	return a.cat.Table(name.Parts[len(name.Parts)-1])
}

// isUserSpace reports whether the table reference targets the user's
// private database (SDSS CasJobs MyDB convention).
func isUserSpace(name *sqlparse.TableName) bool {
	for _, p := range name.Parts[:max(len(name.Parts)-1, 0)] {
		lp := strings.ToLower(p)
		if strings.HasPrefix(lp, "mydb") || strings.HasPrefix(lp, "sdsssql") {
			return true
		}
	}
	return false
}

func tableDisplay(name *sqlparse.TableName) string {
	return strings.Join(name.Parts, ".")
}

// checkExpr resolves every column, function and subquery of e in
// source order and returns the first failure. An IN's tested
// expression is checked before its subquery.
func (a *analyzer) checkExpr(e sqlparse.Expr, sc *scope) error {
	var err error
	sqlparse.Inspect(e, func(n sqlparse.Expr) bool {
		if err != nil {
			return false
		}
		switch x := n.(type) {
		case *sqlparse.ColumnRef:
			err = a.checkColumn(x, sc)
		case *sqlparse.FuncCall:
			if a.cat.Function(x.BareName) == nil {
				err = &simdb.SemanticError{Kind: "function", Name: x.Name}
			}
		case *sqlparse.SubqueryExpr:
			_, err = a.analyzeSelect(x.Select, sc)
		case *sqlparse.ExistsExpr:
			_, err = a.analyzeSelect(x.Subquery, sc)
		case *sqlparse.InExpr:
			if x.Subquery != nil {
				if err = a.checkExpr(x.Expr, sc); err == nil {
					_, err = a.analyzeSelect(x.Subquery, sc)
				}
				return false
			}
		}
		return err == nil
	})
	return err
}

func (a *analyzer) checkColumn(c *sqlparse.ColumnRef, sc *scope) error {
	if sc == nil {
		return nil
	}
	switch len(c.Parts) {
	case 0:
		return nil
	case 1:
		if _, ok := sc.resolveBare(c.Parts[0]); !ok {
			return &simdb.SemanticError{Kind: "column", Name: c.Parts[0]}
		}
		return nil
	default:
		qualifier := c.Parts[len(c.Parts)-2]
		column := c.Parts[len(c.Parts)-1]
		if _, ok := sc.resolveQualified(qualifier, column); !ok {
			return &simdb.SemanticError{Kind: "column", Name: strings.Join(c.Parts, ".")}
		}
		return nil
	}
}
