package simdb

import (
	"fmt"
	"strings"

	"repro/internal/sqlparse"
)

// SemanticError reports a name-resolution failure: the query parsed but
// references schema objects that do not exist in the catalog. The real
// DBMS would accept the statement syntactically and fail at binding
// time, which the paper's workload records as a non-severe error.
type SemanticError struct {
	Kind string // "table", "column", "function", "procedure"
	Name string
}

func (e *SemanticError) Error() string {
	return fmt.Sprintf("simdb: unknown %s %q", e.Kind, e.Name)
}

// Analyze checks that every table, column, function, and procedure a
// statement references exists in the catalog. It returns nil on success
// or the first *SemanticError found; the names bind in the walk that
// estimates the statement's cost.
func (c *Catalog) Analyze(stmt sqlparse.Statement) error {
	_, err := c.plan(stmt)
	return err
}

// plan binds every name stmt references and estimates, in the same walk,
// the SELECT it runs: a SELECT's own or an INSERT's source. An EXEC's
// plan costs one call of its procedure. The error is the first name that
// failed to bind, in the order FROM, select list, WHERE, GROUP BY,
// HAVING, ORDER BY, set operand.
func (c *Catalog) plan(stmt sqlparse.Statement) (planEstimate, error) {
	var sel *sqlparse.SelectStmt
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		sel = s
	case *sqlparse.InsertStmt:
		// INSERT targets user-writable space (SDSS MyDB); accept the
		// target but bind a SELECT source.
		sel = s.Select
	case *sqlparse.UpdateStmt:
		return planEstimate{}, c.bindTarget(s.Table)
	case *sqlparse.DeleteStmt:
		return planEstimate{}, c.bindTarget(s.Table)
	case *sqlparse.ExecStmt:
		bare := s.Proc
		if i := strings.LastIndex(bare, "."); i >= 0 {
			bare = bare[i+1:]
		}
		proc := c.Procedure(bare)
		if proc == nil {
			return planEstimate{}, &SemanticError{Kind: "procedure", Name: s.Proc}
		}
		return planEstimate{Cost: proc.CostPerCall}, nil
	}
	if sel == nil {
		return planEstimate{}, nil // INSERT … VALUES and DDL work in user space
	}
	e := estimator{cat: c}
	p := e.estimateSelect(sel, nil)
	return p, e.err
}

// bindTarget checks the table an UPDATE or DELETE writes: a catalog
// table or one in the user's own space.
func (c *Catalog) bindTarget(name *sqlparse.TableName) error {
	if name != nil && len(name.Parts) > 0 && c.Table(name.Parts[len(name.Parts)-1]) != nil {
		return nil
	}
	if isUserSpace(name) {
		return nil
	}
	return &SemanticError{Kind: "table", Name: tableDisplay(name)}
}

// bindColumn returns a *SemanticError when no relation in scope exports
// the referenced column. A qualifier names, at the innermost level that
// binds it, the last catalog table under that alias, else the last
// derived relation; a bare name binds when a relation some alias names
// that way has it.
func (rs *relSet) bindColumn(ref *sqlparse.ColumnRef) error {
	n := len(ref.Parts)
	switch n {
	case 0:
		return nil
	case 1:
		for s := rs; s != nil; s = s.parent {
			for _, r := range s.rels {
				if r.has(ref.Parts[0]) && s.bound(r.alias) == r {
					return nil
				}
			}
		}
		return &SemanticError{Kind: "column", Name: ref.Parts[0]}
	}
	alias := strings.ToLower(ref.Parts[n-2])
	for s := rs; s != nil; s = s.parent {
		if r := s.bound(alias); r != nil {
			if r.has(ref.Parts[n-1]) {
				return nil
			}
			break
		}
	}
	return &SemanticError{Kind: "column", Name: strings.Join(ref.Parts, ".")}
}

// bound returns the relation alias names for binding at rs's own level:
// the last catalog table bound under it, else the last derived relation.
func (rs *relSet) bound(alias string) *relation {
	var derived *relation
	for i := len(rs.rels) - 1; i >= 0; i-- {
		if r := rs.rels[i]; r.alias == alias {
			if r.table != nil {
				return r
			}
			if derived == nil {
				derived = r
			}
		}
	}
	return derived
}

// has reports whether the relation exports column.
func (r *relation) has(column string) bool {
	if r.table != nil {
		return r.table.Column(column) != nil
	}
	return r.cols == nil || r.cols[strings.ToLower(column)]
}

func selectListAlias(sel *sqlparse.SelectStmt, name string) bool {
	for _, item := range sel.Columns {
		if strings.EqualFold(item.Alias, name) {
			return true
		}
	}
	return false
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
