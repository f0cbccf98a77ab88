package sqlparse

// Statement is any parsed SQL statement.
type Statement interface{ stmtNode() }

// SelectStmt is a SELECT query, possibly with set operations chained in
// Next (UNION/INTERSECT/EXCEPT).
type SelectStmt struct {
	Distinct bool
	Top      *TopClause
	Columns  []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	SetOp    string      // "", "UNION", "UNION ALL", "INTERSECT", "EXCEPT"
	Next     *SelectStmt // right operand of SetOp
	Into     string      // SELECT ... INTO target (SDSS CasJobs MyDB pattern)
}

// TopClause is the T-SQL TOP n row limiter used throughout SDSS.
type TopClause struct {
	Count   float64
	Percent bool
}

// SelectItem is one element of the select list.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT * or t.*
}

// OrderItem is one element of the ORDER BY list.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// TableRef is a reference in the FROM clause.
type TableRef interface{ tableRefNode() }

// TableName references a base table or view, possibly qualified
// (db.schema.table) and aliased.
type TableName struct {
	Parts []string // e.g. ["dbo", "PhotoObj"]
	Alias string
}

// JoinRef is an explicit JOIN between two table references.
type JoinRef struct {
	Left, Right TableRef
	Type        string // "INNER", "LEFT", "RIGHT", "FULL", "CROSS"
	On          Expr   // nil for CROSS JOIN
}

// SubqueryRef is a derived table: (SELECT ...) alias.
type SubqueryRef struct {
	Select *SelectStmt
	Alias  string
}

func (*TableName) tableRefNode()   {}
func (*JoinRef) tableRefNode()     {}
func (*SubqueryRef) tableRefNode() {}

// Expr is any expression node.
type Expr interface{ exprNode() }

// BinaryExpr is a binary operation, including comparisons, arithmetic,
// AND/OR, LIKE, and IS.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr is NOT, unary minus, or bitwise complement.
type UnaryExpr struct {
	Op   string
	Expr Expr
}

// FuncCall is a function invocation; Star marks COUNT(*).
type FuncCall struct {
	Name     string // possibly qualified, e.g. "dbo.fPhotoFlags"
	BareName string // last path component, e.g. "fPhotoFlags"
	Args     []Expr
	Star     bool
	Distinct bool
}

// ColumnRef references a column, possibly qualified (alias.column).
type ColumnRef struct {
	Parts []string
}

// Name returns the bare column name (last part).
func (c *ColumnRef) Name() string {
	if len(c.Parts) == 0 {
		return ""
	}
	return c.Parts[len(c.Parts)-1]
}

// Literal is a number, string, or NULL constant.
type Literal struct {
	Kind  string // "number", "string", "null"
	Text  string
	Value float64 // numeric value when Kind == "number"
}

// SubqueryExpr is a scalar or relational subquery in an expression.
type SubqueryExpr struct {
	Select *SelectStmt
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Expr, Lo, Hi Expr
	Not          bool
}

// InExpr is x [NOT] IN (list | subquery).
type InExpr struct {
	Expr     Expr
	List     []Expr
	Subquery *SelectStmt
	Not      bool
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Subquery *SelectStmt
	Not      bool
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one WHEN/THEN arm of a CASE expression.
type CaseWhen struct {
	When, Then Expr
}

// CastExpr is CAST(expr AS type).
type CastExpr struct {
	Expr Expr
	Type string
}

// StarExpr is a bare * inside an expression context (e.g. COUNT(*)).
type StarExpr struct{}

func (*BinaryExpr) exprNode()   {}
func (*UnaryExpr) exprNode()    {}
func (*FuncCall) exprNode()     {}
func (*ColumnRef) exprNode()    {}
func (*Literal) exprNode()      {}
func (*SubqueryExpr) exprNode() {}
func (*BetweenExpr) exprNode()  {}
func (*InExpr) exprNode()       {}
func (*ExistsExpr) exprNode()   {}
func (*CaseExpr) exprNode()     {}
func (*CastExpr) exprNode()     {}
func (*StarExpr) exprNode()     {}

// Inspect walks the expression tree rooted at e in source order, as
// go/ast.Inspect does: it calls f(e) and, when f returns true, inspects
// e's operands in turn — a BinaryExpr's left then right; a CaseExpr's
// operand, each WHEN then its THEN, and its ELSE; an InExpr's tested
// expression then its list; a BetweenExpr's expression, low and high
// bound. Nil operands are skipped. A subquery (SubqueryExpr, ExistsExpr,
// an InExpr's Subquery) is not entered: f meets the node that holds it
// and walks the SELECT itself if it wants to.
func Inspect(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		Inspect(x.Left, f)
		Inspect(x.Right, f)
	case *UnaryExpr:
		Inspect(x.Expr, f)
	case *FuncCall:
		for _, a := range x.Args {
			Inspect(a, f)
		}
	case *CastExpr:
		Inspect(x.Expr, f)
	case *CaseExpr:
		Inspect(x.Operand, f)
		for _, w := range x.Whens {
			Inspect(w.When, f)
			Inspect(w.Then, f)
		}
		Inspect(x.Else, f)
	case *InExpr:
		Inspect(x.Expr, f)
		for _, item := range x.List {
			Inspect(item, f)
		}
	case *BetweenExpr:
		Inspect(x.Expr, f)
		Inspect(x.Lo, f)
		Inspect(x.Hi, f)
	}
}

// Non-SELECT statements get shallow parses: the workload analysis only
// needs their verb and referenced tables, and the execution simulator
// rejects or cost-models them coarsely.

// InsertStmt is INSERT INTO table ... .
type InsertStmt struct {
	Table   *TableName
	Columns []string
	Select  *SelectStmt // nil for VALUES inserts
	Rows    int         // number of VALUES tuples
}

// UpdateStmt is UPDATE table SET ... [WHERE ...].
type UpdateStmt struct {
	Table *TableName
	Sets  []SetClause
	Where Expr
}

// SetClause is one column assignment in UPDATE.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table *TableName
	Where Expr
}

// CreateStmt is CREATE TABLE/VIEW/INDEX (shallow).
type CreateStmt struct {
	What string // "TABLE", "VIEW", "INDEX", ...
	Name *TableName
}

// DropStmt is DROP TABLE/VIEW/INDEX (shallow).
type DropStmt struct {
	What string
	Name *TableName
}

// AlterStmt is ALTER TABLE ... (shallow).
type AlterStmt struct {
	What string
	Name *TableName
}

// ExecStmt is EXEC/EXECUTE procedure [args].
type ExecStmt struct {
	Proc string
	Args []Expr
}

func (*SelectStmt) stmtNode() {}
func (*InsertStmt) stmtNode() {}
func (*UpdateStmt) stmtNode() {}
func (*DeleteStmt) stmtNode() {}
func (*CreateStmt) stmtNode() {}
func (*DropStmt) stmtNode()   {}
func (*AlterStmt) stmtNode()  {}
func (*ExecStmt) stmtNode()   {}
