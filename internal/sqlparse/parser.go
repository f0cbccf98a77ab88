package sqlparse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parse parses one or more semicolon-separated SQL statements. It
// returns an error when the input is not valid SQL in the supported
// dialect; callers use that signal for the paper's severe error class.
func Parse(input string) ([]Statement, error) {
	st := borrowToks(input)
	defer releaseToks(st)
	return parseTokens(st.toks)
}

// parseTokens is Parse over a lexed token stream ending in TokEOF. It
// reads toks only; the statements it returns share nothing with them.
func parseTokens(toks []Token) ([]Statement, error) {
	p := &parser{toks: toks}
	var stmts []Statement
	for {
		for p.peek().Kind == TokSemicolon {
			p.advance()
		}
		if p.peek().Kind == TokEOF {
			break
		}
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
		// Statements must be separated by semicolons or end the input;
		// SDSS logs occasionally concatenate SELECTs without separators,
		// which we accept when the next token starts a new statement verb.
		if p.peek().Kind != TokSemicolon && p.peek().Kind != TokEOF && !p.atStatementStart() {
			return nil, p.errorf("unexpected token %q after statement", p.peek().Text)
		}
	}
	if len(stmts) == 0 {
		return nil, &ParseError{Pos: 0, Msg: "empty statement"}
	}
	return stmts, nil
}

type parser struct {
	toks []Token
	pos  int
	// depth guards against pathological nesting blowing the stack on
	// adversarial inputs.
	depth int
}

const maxParseDepth = 200

func (p *parser) peek() Token { return p.toks[p.pos] }
func (p *parser) peek2() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errorf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().IsKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected "+kw+", found %q", p.peek().Text)
	}
	return nil
}

func (p *parser) expect(kind TokenKind, what string) (Token, error) {
	if p.peek().Kind != kind {
		return Token{}, p.errorf("expected "+what+", found %q", p.peek().Text)
	}
	return p.advance(), nil
}

// The grammar's shapes, each written once.

// list parses one item, then one more after each comma.
func (p *parser) list(item func() error) error {
	for {
		if err := item(); err != nil {
			return err
		}
		if p.peek().Kind != TokComma {
			return nil
		}
		p.advance()
	}
}

// exprList is a list of expressions.
func (p *parser) exprList() ([]Expr, error) {
	var out []Expr
	err := p.list(func() error {
		e, err := p.parseExpr()
		out = append(out, e)
		return err
	})
	return out, err
}

// binary parses one left-associative operator level: next, then one
// more next after each token op names an operator ("" for none),
// folded from the left.
func (p *parser) binary(next func() (Expr, error), op func(Token) string) (Expr, error) {
	left, err := next()
	if err != nil {
		return nil, err
	}
	for o := op(p.peek()); o != ""; o = op(p.peek()) {
		p.advance()
		right, err := next()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: o, Left: left, Right: right}
	}
	return left, nil
}

// closeSelect parses a SELECT and the ")" closing it.
func (p *parser) closeSelect() (*SelectStmt, error) {
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	return sel, nil
}

// parenSelect parses "(" SELECT ")".
func (p *parser) parenSelect() (*SelectStmt, error) {
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	return p.closeSelect()
}

// atSelect reports whether the next token starts a SELECT.
func (p *parser) atSelect() bool {
	return p.peek().IsKeyword("SELECT") || p.peek().IsKeyword("WITH")
}

// clause parses an optional "kw expr"; it returns nil without kw.
func (p *parser) clause(kw string) (Expr, error) {
	if !p.acceptKeyword(kw) {
		return nil, nil
	}
	return p.parseExpr()
}

// skipParens skips a parenthesized run of tokens the grammar does not
// keep (a CTE's column list, a type's precision) when one comes next.
func (p *parser) skipParens() error {
	if p.peek().Kind != TokLParen {
		return nil
	}
	p.advance()
	for p.peek().Kind != TokRParen && p.peek().Kind != TokEOF {
		p.advance()
	}
	_, err := p.expect(TokRParen, ")")
	return err
}

// alias parses an optional alias: AS and the name, what naming it in
// the error when the name is missing, or a bare identifier that is not
// a clause keyword.
func (p *parser) alias(what string) (string, error) {
	if p.acceptKeyword("AS") {
		tok, err := p.expect(TokIdent, what)
		return tok.Text, err
	}
	if p.peek().Kind == TokIdent && !isClauseKeyword(p.peek().Upper()) {
		return p.advance().Text, nil
	}
	return "", nil
}

func (p *parser) atStatementStart() bool {
	t := p.peek()
	if t.Kind != TokIdent {
		return false
	}
	u := t.Upper()
	return u == "WITH" || isStatementVerb(u)
}

func isStatementVerb(upper string) bool {
	switch upper {
	case "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER",
		"EXEC", "EXECUTE", "TRUNCATE":
		return true
	}
	return false
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind == TokLParen {
		// Parenthesized SELECT at statement level.
		return p.parseSelect()
	}
	if t.Kind != TokIdent {
		return nil, p.errorf("expected statement, found %q", t.Text)
	}
	switch t.Upper() {
	case "SELECT", "WITH":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "ALTER":
		return p.parseAlter()
	case "EXEC", "EXECUTE":
		return p.parseExec()
	case "TRUNCATE":
		p.advance()
		p.acceptKeyword("TABLE")
		name, err := p.parseTableName()
		if err != nil {
			return nil, err
		}
		return &DropStmt{What: "TRUNCATE", Name: name}, nil
	default:
		return nil, p.errorf("unsupported statement verb %q", t.Text)
	}
}

// parseSelect parses a full SELECT including WITH prefixes and chained
// set operations.
func (p *parser) parseSelect() (*SelectStmt, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxParseDepth {
		return nil, p.errorf("query too deeply nested")
	}
	if p.acceptKeyword("WITH") {
		// WITH name [ (cols) ] AS ( select ) [, ...] select
		if err := p.list(func() error {
			if _, err := p.expect(TokIdent, "CTE name"); err != nil {
				return err
			}
			if !p.peek2().IsKeyword("SELECT") {
				if err := p.skipParens(); err != nil {
					return err
				}
			}
			if err := p.expectKeyword("AS"); err != nil {
				return err
			}
			_, err := p.parenSelect()
			return err
		}); err != nil {
			return nil, err
		}
	}
	sel, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	// Set operations.
	cur := sel
	for {
		var op string
		switch {
		case p.acceptKeyword("UNION"):
			op = "UNION"
			if p.acceptKeyword("ALL") {
				op = "UNION ALL"
			}
		case p.acceptKeyword("INTERSECT"):
			op = "INTERSECT"
		case p.acceptKeyword("EXCEPT"):
			op = "EXCEPT"
		default:
			return sel, nil
		}
		next, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		cur.SetOp = op
		cur.Next = next
		cur = next
	}
}

func (p *parser) parseSelectCore() (*SelectStmt, error) {
	if p.peek().Kind == TokLParen {
		return p.parenSelect()
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	if p.acceptKeyword("TOP") {
		top := &TopClause{}
		switch p.peek().Kind {
		case TokNumber:
			top.Count = parseNumber(p.advance().Text)
		case TokLParen:
			p.advance()
			n, err := p.expect(TokNumber, "TOP count")
			if err != nil {
				return nil, err
			}
			top.Count = parseNumber(n.Text)
			if _, err := p.expect(TokRParen, ")"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("expected TOP count, found %q", p.peek().Text)
		}
		top.Percent = p.acceptKeyword("PERCENT")
		sel.Top = top
	}
	if err := p.list(func() error {
		item, err := p.parseSelectItem()
		sel.Columns = append(sel.Columns, item)
		return err
	}); err != nil {
		return nil, err
	}
	// INTO (SDSS CasJobs: SELECT ... INTO mydb.table FROM ...).
	if p.acceptKeyword("INTO") {
		name, err := p.parseTableName()
		if err != nil {
			return nil, err
		}
		sel.Into = strings.Join(name.Parts, ".")
	}
	if p.acceptKeyword("FROM") {
		if err := p.list(func() error {
			ref, err := p.parseTableRef()
			sel.From = append(sel.From, ref)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var err error
	if sel.Where, err = p.clause("WHERE"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if sel.GroupBy, err = p.exprList(); err != nil {
			return nil, err
		}
	}
	if sel.Having, err = p.clause("HAVING"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		if err := p.list(func() error {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			item := OrderItem{Expr: e, Desc: p.acceptKeyword("DESC")}
			if !item.Desc {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	// LIMIT n (SQLShare runs on engines accepting LIMIT).
	if p.acceptKeyword("LIMIT") {
		n, err := p.expect(TokNumber, "LIMIT count")
		if err != nil {
			return nil, err
		}
		sel.Top = &TopClause{Count: parseNumber(n.Text)}
		if p.acceptKeyword("OFFSET") {
			if _, err := p.expect(TokNumber, "OFFSET count"); err != nil {
				return nil, err
			}
		}
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.peek().Kind == TokStar {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	// t.* pattern
	if p.peek().Kind == TokIdent && p.peek2().Kind == TokDot {
		save := p.pos
		p.advance()
		p.advance()
		if p.peek().Kind == TokStar {
			p.advance()
			return SelectItem{Star: true}, nil
		}
		p.pos = save
	}
	expr, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	alias, err := p.alias("alias")
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Expr: expr, Alias: alias}, nil
}

func isClauseKeyword(upper string) bool {
	switch upper {
	case "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "UNION", "INTERSECT",
		"EXCEPT", "INTO", "ON", "AND", "OR", "NOT", "AS", "JOIN", "INNER",
		"LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "WHEN", "THEN", "ELSE",
		"END", "ASC", "DESC", "LIMIT", "OFFSET", "BETWEEN", "IN", "LIKE",
		"IS", "NULL", "EXISTS", "TOP", "PERCENT", "SET", "VALUES", "BY":
		return true
	}
	// Statement verbs: SDSS logs concatenate statements without
	// separators, so a verb after a table name starts a new statement
	// rather than aliasing the table.
	return isStatementVerb(upper)
}

// joinKeywords open a join, each naming its type.
var joinKeywords = [...]string{"INNER", "CROSS", "LEFT", "RIGHT", "FULL"}

// joinType reads a join's type keywords, stopping before JOIN: a bare
// JOIN is INNER, and "" means no join follows.
func (p *parser) joinType() string {
	for _, kw := range joinKeywords {
		if p.acceptKeyword(kw) {
			if kw == "LEFT" || kw == "RIGHT" || kw == "FULL" {
				p.acceptKeyword("OUTER")
			}
			return kw
		}
	}
	if p.peek().IsKeyword("JOIN") {
		return "INNER"
	}
	return ""
}

func (p *parser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		save := p.pos
		typ := p.joinType()
		if typ == "" || !p.acceptKeyword("JOIN") {
			p.pos = save
			return left, nil
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		join := &JoinRef{Left: left, Right: right, Type: typ}
		if typ != "CROSS" {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			if join.On, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		left = join
	}
}

func (p *parser) parsePrimaryTableRef() (TableRef, error) {
	if p.peek().Kind == TokLParen {
		sel, err := p.parenSelect()
		if err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Select: sel}
		p.acceptKeyword("AS")
		if p.peek().Kind == TokIdent && !isClauseKeyword(p.peek().Upper()) {
			ref.Alias = p.advance().Text
		}
		return ref, nil
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	if name.Alias, err = p.alias("table alias"); err != nil {
		return nil, err
	}
	return name, nil
}

func (p *parser) parseTableName() (*TableName, error) {
	tok, err := p.expect(TokIdent, "table name")
	if err != nil {
		return nil, err
	}
	name := &TableName{Parts: []string{tok.Text}}
	for p.peek().Kind == TokDot {
		p.advance()
		// SQL Server allows empty path segments (db..table).
		if p.peek().Kind == TokDot {
			continue
		}
		tok, err := p.expect(TokIdent, "name part")
		if err != nil {
			return nil, err
		}
		name.Parts = append(name.Parts, tok.Text)
	}
	return name, nil
}

// Expression grammar, loosest binding first.

func (p *parser) parseExpr() (Expr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxParseDepth {
		return nil, p.errorf("expression too deeply nested")
	}
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) { return p.binary(p.parseAnd, orOp) }

func (p *parser) parseAnd() (Expr, error) { return p.binary(p.parseNot, andOp) }

func orOp(t Token) string  { return keywordOp(t, "OR") }
func andOp(t Token) string { return keywordOp(t, "AND") }

func keywordOp(t Token, kw string) string {
	if t.IsKeyword(kw) {
		return kw
	}
	return ""
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: inner}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	not := false
	if p.peek().IsKeyword("NOT") &&
		(p.peek2().IsKeyword("BETWEEN") || p.peek2().IsKeyword("IN") || p.peek2().IsKeyword("LIKE")) {
		p.advance()
		not = true
	}
	switch {
	case p.peek().Kind == TokOperator && isComparison(p.peek().Text):
		op := p.advance().Text
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, Left: left, Right: right}, nil
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Expr: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKeyword("IN"):
		if _, err := p.expect(TokLParen, "("); err != nil {
			return nil, err
		}
		in := &InExpr{Expr: left, Not: not}
		if p.atSelect() {
			in.Subquery, err = p.closeSelect()
		} else if in.List, err = p.exprList(); err == nil {
			_, err = p.expect(TokRParen, ")")
		}
		if err != nil {
			return nil, err
		}
		return in, nil
	case p.acceptKeyword("LIKE"):
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := Expr(&BinaryExpr{Op: "LIKE", Left: left, Right: right})
		if not {
			e = &UnaryExpr{Op: "NOT", Expr: e}
		}
		return e, nil
	case p.acceptKeyword("IS"):
		op := "IS NULL"
		if p.acceptKeyword("NOT") {
			op = "IS NOT NULL"
		}
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: op, Expr: left}, nil
	}
	return left, nil
}

func isComparison(op string) bool {
	switch op {
	case "=", "<", ">", "<=", ">=", "<>", "!=", "!<", "!>":
		return true
	}
	return false
}

func (p *parser) parseAdditive() (Expr, error) { return p.binary(p.parseMultiplicative, additiveOp) }

func (p *parser) parseMultiplicative() (Expr, error) { return p.binary(p.parseUnary, multiplicativeOp) }

func additiveOp(t Token) string {
	if t.Kind == TokOperator {
		switch t.Text {
		case "+", "-", "&", "|", "^", "||":
			return t.Text
		}
	}
	return ""
}

func multiplicativeOp(t Token) string {
	if t.Kind == TokStar || t.Kind == TokOperator && (t.Text == "/" || t.Text == "%") {
		return t.Text
	}
	return ""
}

func (p *parser) parseUnary() (Expr, error) {
	if p.peek().Kind == TokOperator {
		switch p.peek().Text {
		case "-", "+", "~":
			op := p.advance().Text
			inner, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{Op: op, Expr: inner}, nil
		}
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.advance()
		return &Literal{Kind: "number", Text: t.Text, Value: parseNumber(t.Text)}, nil
	case TokString:
		p.advance()
		return &Literal{Kind: "string", Text: t.Text}, nil
	case TokStar:
		p.advance()
		return &StarExpr{}, nil
	case TokLParen:
		p.advance()
		if p.atSelect() {
			sel, err := p.closeSelect()
			if err != nil {
				return nil, err
			}
			return &SubqueryExpr{Select: sel}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case TokIdent:
		switch t.Upper() {
		case "NULL":
			p.advance()
			return &Literal{Kind: "null", Text: "NULL"}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "EXISTS":
			p.advance()
			sel, err := p.parenSelect()
			if err != nil {
				return nil, err
			}
			return &ExistsExpr{Subquery: sel}, nil
		}
		return p.parseNameOrCall()
	default:
		return nil, p.errorf("unexpected token %q in expression", t.Text)
	}
}

func (p *parser) parseCase() (Expr, error) {
	p.advance() // CASE
	c := &CaseExpr{}
	if !p.peek().IsKeyword("WHEN") {
		operand, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = operand
	}
	for p.acceptKeyword("WHEN") {
		when, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{When: when, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE without WHEN")
	}
	var err error
	if c.Else, err = p.clause("ELSE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseCast() (Expr, error) {
	p.advance() // CAST
	if _, err := p.expect(TokLParen, "("); err != nil {
		return nil, err
	}
	inner, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	// Type name: ident possibly with (n) or (n, m).
	typ, err := p.expect(TokIdent, "type name")
	if err != nil {
		return nil, err
	}
	if err := p.skipParens(); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	return &CastExpr{Expr: inner, Type: typ.Text}, nil
}

// parseNameOrCall parses a possibly qualified identifier which may be a
// column reference or a function call.
func (p *parser) parseNameOrCall() (Expr, error) {
	var parts []string
	tok, err := p.expect(TokIdent, "identifier")
	if err != nil {
		return nil, err
	}
	parts = append(parts, tok.Text)
	for p.peek().Kind == TokDot {
		p.advance()
		if p.peek().Kind == TokDot {
			continue
		}
		if p.peek().Kind == TokStar {
			// alias.* inside expression; treat as star.
			p.advance()
			return &StarExpr{}, nil
		}
		tok, err := p.expect(TokIdent, "name part")
		if err != nil {
			return nil, err
		}
		parts = append(parts, tok.Text)
	}
	if p.peek().Kind != TokLParen {
		return &ColumnRef{Parts: parts}, nil
	}
	p.advance()
	call := &FuncCall{
		Name:     strings.Join(parts, "."),
		BareName: parts[len(parts)-1],
		Distinct: p.acceptKeyword("DISTINCT"),
	}
	if p.peek().Kind == TokStar {
		p.advance()
		call.Star = true
	} else if p.peek().Kind != TokRParen {
		if call.Args, err = p.exprList(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	return call, nil
}

func parseNumber(text string) float64 {
	if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
		v, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil {
			return 0
		}
		return float64(v)
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return 0
	}
	return v
}

// Shallow parsers for non-SELECT statements.

func (p *parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	p.acceptKeyword("INTO")
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.peek().Kind == TokLParen && !p.peek2().IsKeyword("SELECT") {
		p.advance()
		if err := p.list(func() error {
			tok, err := p.expect(TokIdent, "column name")
			ins.Columns = append(ins.Columns, tok.Text)
			return err
		}); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.acceptKeyword("VALUES"):
		err = p.list(func() error {
			if _, err := p.expect(TokLParen, "("); err != nil {
				return err
			}
			if err := p.list(func() error {
				_, err := p.parseExpr()
				return err
			}); err != nil {
				return err
			}
			ins.Rows++
			_, err := p.expect(TokRParen, ")")
			return err
		})
	case p.peek().IsKeyword("SELECT") || p.peek().Kind == TokLParen:
		ins.Select, err = p.parseSelect()
	default:
		err = p.errorf("expected VALUES or SELECT, found %q", p.peek().Text)
	}
	if err != nil {
		return nil, err
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	if err := p.list(func() error {
		col, err := p.parseTableName() // reuse dotted-name parsing
		if err != nil {
			return err
		}
		if p.peek().Kind != TokOperator || p.peek().Text != "=" {
			return p.errorf("expected = in SET, found %q", p.peek().Text)
		}
		p.advance()
		val, err := p.parseExpr()
		upd.Sets = append(upd.Sets, SetClause{Column: strings.Join(col.Parts, "."), Value: val})
		return err
	}); err != nil {
		return nil, err
	}
	if upd.Where, err = p.clause("WHERE"); err != nil {
		return nil, err
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	p.acceptKeyword("FROM")
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: table}
	if del.Where, err = p.clause("WHERE"); err != nil {
		return nil, err
	}
	return del, nil
}

func (p *parser) parseCreate() (Statement, error) {
	what, name, err := p.ddlTarget("CREATE", "TABLE", "VIEW", "INDEX", "FUNCTION", "PROCEDURE", "UNIQUE", "CLUSTERED")
	if err != nil {
		return nil, err
	}
	// Consume the remainder of the definition without validation:
	// the workload treats DDL bodies opaquely.
	p.skipBalancedToEnd()
	return &CreateStmt{What: what, Name: name}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	what, name, err := p.ddlTarget("DROP", "TABLE", "VIEW", "INDEX", "FUNCTION", "PROCEDURE")
	if err != nil {
		return nil, err
	}
	return &DropStmt{What: what, Name: name}, nil
}

func (p *parser) parseAlter() (Statement, error) {
	what, name, err := p.ddlTarget("ALTER", "TABLE", "VIEW", "INDEX")
	if err != nil {
		return nil, err
	}
	p.skipBalancedToEnd()
	return &AlterStmt{What: what, Name: name}, nil
}

// ddlTarget reads what the DDL verb (CREATE, DROP or ALTER) acts on:
// an object kind among kinds (UNIQUE or CLUSTERED, then an optional
// INDEX, make an INDEX) and the object's name.
func (p *parser) ddlTarget(verb string, kinds ...string) (string, *TableName, error) {
	p.advance() // the verb
	what := p.peek().Upper()
	if !slices.Contains(kinds, what) {
		return "", nil, p.errorf("unsupported %s %q", verb, p.peek().Text)
	}
	p.advance()
	if what == "UNIQUE" || what == "CLUSTERED" {
		p.acceptKeyword("INDEX")
		what = "INDEX"
	}
	name, err := p.parseTableName()
	return what, name, err
}

func (p *parser) parseExec() (Statement, error) {
	p.advance() // EXEC / EXECUTE
	proc, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ex := &ExecStmt{Proc: strings.Join(proc.Parts, ".")}
	// Not list: EXEC may take no arguments and may end in a comma.
	for p.peek().Kind != TokEOF && p.peek().Kind != TokSemicolon {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ex.Args = append(ex.Args, arg)
		if p.peek().Kind != TokComma {
			break
		}
		p.advance()
	}
	return ex, nil
}

// skipBalancedToEnd consumes tokens until the next top-level semicolon
// or EOF, respecting parenthesis nesting. Used for DDL bodies.
func (p *parser) skipBalancedToEnd() {
	depth := 0
	for {
		t := p.peek()
		switch t.Kind {
		case TokEOF:
			return
		case TokLParen:
			depth++
		case TokRParen:
			if depth > 0 {
				depth--
			}
		case TokSemicolon:
			if depth == 0 {
				return
			}
		}
		p.advance()
	}
}
