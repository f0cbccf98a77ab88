// This file is the recursive-descent parser as it stood before each
// grammar shape (comma list, left-associative operator level,
// parenthesized SELECT, optional clause, alias) got one implementation
// in parser.go: the same code, the type renamed refParser and its
// package-level helpers prefixed ref. It shares only the lexer and the
// AST types with parser.go. TestParseMatchesReference and
// FuzzParseMatchesReference hold Parse to it: equal statements, equal
// errors, equal error positions.

package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// refParse parses one or more semicolon-separated SQL statements. It
// returns an error when the input is not valid SQL in the supported
// dialect; callers use that signal for the paper's severe error class.
func refParse(input string) ([]Statement, error) {
	st := borrowToks(input)
	defer releaseToks(st)
	return refParseTokens(st.toks)
}

// refParseTokens is refParse over a lexed token stream ending in TokEOF. It
// reads toks only; the statements it returns share nothing with them.
func refParseTokens(toks []Token) ([]Statement, error) {
	p := &refParser{toks: toks}
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

type refParser struct {
	toks []Token
	pos  int
	// depth guards against pathological nesting blowing the stack on
	// adversarial inputs.
	depth int
}

const refMaxParseDepth = 200

func (p *refParser) peek() Token { return p.toks[p.pos] }
func (p *refParser) peek2() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *refParser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *refParser) errorf(format string, args ...interface{}) error {
	return &ParseError{Pos: p.peek().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *refParser) acceptKeyword(kw string) bool {
	if p.peek().IsKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *refParser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected "+kw+", found %q", p.peek().Text)
	}
	return nil
}

func (p *refParser) expect(kind TokenKind, what string) (Token, error) {
	if p.peek().Kind != kind {
		return Token{}, p.errorf("expected "+what+", found %q", p.peek().Text)
	}
	return p.advance(), nil
}

func (p *refParser) atStatementStart() bool {
	t := p.peek()
	if t.Kind != TokIdent {
		return false
	}
	switch t.Upper() {
	case "SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER",
		"EXEC", "EXECUTE", "TRUNCATE", "WITH":
		return true
	}
	return false
}

func (p *refParser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokIdent && t.Kind != TokLParen {
		return nil, p.errorf("expected statement, found %q", t.Text)
	}
	if t.Kind == TokLParen {
		// Parenthesized SELECT at statement level.
		return p.parseSelect()
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
func (p *refParser) parseSelect() (*SelectStmt, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > refMaxParseDepth {
		return nil, p.errorf("query too deeply nested")
	}
	if p.acceptKeyword("WITH") {
		// WITH name [ (cols) ] AS ( select ) [, ...] select
		for {
			if _, err := p.expect(TokIdent, "CTE name"); err != nil {
				return nil, err
			}
			if p.peek().Kind == TokLParen && !p.peek2().IsKeyword("SELECT") {
				// column list
				p.advance()
				for p.peek().Kind != TokRParen && p.peek().Kind != TokEOF {
					p.advance()
				}
				if _, err := p.expect(TokRParen, ")"); err != nil {
					return nil, err
				}
			}
			if err := p.expectKeyword("AS"); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokLParen, "("); err != nil {
				return nil, err
			}
			if _, err := p.parseSelect(); err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen, ")"); err != nil {
				return nil, err
			}
			if p.peek().Kind != TokComma {
				break
			}
			p.advance()
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
		case p.peek().IsKeyword("UNION"):
			p.advance()
			op = "UNION"
			if p.acceptKeyword("ALL") {
				op = "UNION ALL"
			}
		case p.peek().IsKeyword("INTERSECT"):
			p.advance()
			op = "INTERSECT"
		case p.peek().IsKeyword("EXCEPT"):
			p.advance()
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

func (p *refParser) parseSelectCore() (*SelectStmt, error) {
	if p.peek().Kind == TokLParen {
		p.advance()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return sel, nil
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
	if p.peek().IsKeyword("TOP") {
		p.advance()
		top := &TopClause{}
		switch p.peek().Kind {
		case TokNumber:
			top.Count = refParseNumber(p.advance().Text)
		case TokLParen:
			p.advance()
			if n, err := p.expect(TokNumber, "TOP count"); err == nil {
				top.Count = refParseNumber(n.Text)
			} else {
				return nil, err
			}
			if _, err := p.expect(TokRParen, ")"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errorf("expected TOP count, found %q", p.peek().Text)
		}
		if p.acceptKeyword("PERCENT") {
			top.Percent = true
		}
		sel.Top = top
	}
	// Select list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Columns = append(sel.Columns, item)
		if p.peek().Kind != TokComma {
			break
		}
		p.advance()
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
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if p.peek().Kind != TokComma {
				break
			}
			p.advance()
		}
	}
	if p.acceptKeyword("WHERE") {
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = expr
	}
	if p.peek().IsKeyword("GROUP") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.peek().Kind != TokComma {
				break
			}
			p.advance()
		}
	}
	if p.acceptKeyword("HAVING") {
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = expr
	}
	if p.peek().IsKeyword("ORDER") {
		p.advance()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.peek().Kind != TokComma {
				break
			}
			p.advance()
		}
	}
	// LIMIT n (SQLShare runs on engines accepting LIMIT).
	if p.acceptKeyword("LIMIT") {
		if n, err := p.expect(TokNumber, "LIMIT count"); err == nil {
			sel.Top = &TopClause{Count: refParseNumber(n.Text)}
		} else {
			return nil, err
		}
		if p.acceptKeyword("OFFSET") {
			if _, err := p.expect(TokNumber, "OFFSET count"); err != nil {
				return nil, err
			}
		}
	}
	return sel, nil
}

func (p *refParser) parseSelectItem() (SelectItem, error) {
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
	item := SelectItem{Expr: expr}
	if p.acceptKeyword("AS") {
		tok, err := p.expect(TokIdent, "alias")
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = tok.Text
	} else if p.peek().Kind == TokIdent && !refIsClauseKeyword(p.peek().Upper()) {
		item.Alias = p.advance().Text
	}
	return item, nil
}

func refIsClauseKeyword(upper string) bool {
	switch upper {
	case "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "UNION", "INTERSECT",
		"EXCEPT", "INTO", "ON", "AND", "OR", "NOT", "AS", "JOIN", "INNER",
		"LEFT", "RIGHT", "FULL", "OUTER", "CROSS", "WHEN", "THEN", "ELSE",
		"END", "ASC", "DESC", "LIMIT", "OFFSET", "BETWEEN", "IN", "LIKE",
		"IS", "NULL", "EXISTS", "TOP", "PERCENT", "SET", "VALUES", "BY",
		// Statement verbs: SDSS logs concatenate statements without
		// separators, so a verb after a table name starts a new
		// statement rather than aliasing the table.
		"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "ALTER",
		"EXEC", "EXECUTE", "TRUNCATE":
		return true
	}
	return false
}

func (p *refParser) parseTableRef() (TableRef, error) {
	left, err := p.parsePrimaryTableRef()
	if err != nil {
		return nil, err
	}
	for {
		joinType := ""
		save := p.pos
		switch {
		case p.peek().IsKeyword("INNER"):
			p.advance()
			joinType = "INNER"
		case p.peek().IsKeyword("LEFT"):
			p.advance()
			p.acceptKeyword("OUTER")
			joinType = "LEFT"
		case p.peek().IsKeyword("RIGHT"):
			p.advance()
			p.acceptKeyword("OUTER")
			joinType = "RIGHT"
		case p.peek().IsKeyword("FULL"):
			p.advance()
			p.acceptKeyword("OUTER")
			joinType = "FULL"
		case p.peek().IsKeyword("CROSS"):
			p.advance()
			joinType = "CROSS"
		case p.peek().IsKeyword("JOIN"):
			joinType = "INNER"
		default:
			return left, nil
		}
		if !p.acceptKeyword("JOIN") {
			p.pos = save
			return left, nil
		}
		right, err := p.parsePrimaryTableRef()
		if err != nil {
			return nil, err
		}
		join := &JoinRef{Left: left, Right: right, Type: joinType}
		if joinType != "CROSS" {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = cond
		}
		left = join
	}
}

func (p *refParser) parsePrimaryTableRef() (TableRef, error) {
	if p.peek().Kind == TokLParen {
		p.advance()
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		ref := &SubqueryRef{Select: sel}
		p.acceptKeyword("AS")
		if p.peek().Kind == TokIdent && !refIsClauseKeyword(p.peek().Upper()) {
			ref.Alias = p.advance().Text
		}
		return ref, nil
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("AS") {
		tok, err := p.expect(TokIdent, "table alias")
		if err != nil {
			return nil, err
		}
		name.Alias = tok.Text
	} else if p.peek().Kind == TokIdent && !refIsClauseKeyword(p.peek().Upper()) {
		name.Alias = p.advance().Text
	}
	return name, nil
}

func (p *refParser) parseTableName() (*TableName, error) {
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

func (p *refParser) parseExpr() (Expr, error) {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > refMaxParseDepth {
		return nil, p.errorf("expression too deeply nested")
	}
	return p.parseOr()
}

func (p *refParser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek().IsKeyword("OR") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *refParser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peek().IsKeyword("AND") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *refParser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: inner}, nil
	}
	return p.parsePredicate()
}

func (p *refParser) parsePredicate() (Expr, error) {
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
	case p.peek().Kind == TokOperator && refIsComparison(p.peek().Text):
		op := p.advance().Text
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, Left: left, Right: right}, nil
	case p.peek().IsKeyword("BETWEEN"):
		p.advance()
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
	case p.peek().IsKeyword("IN"):
		p.advance()
		if _, err := p.expect(TokLParen, "("); err != nil {
			return nil, err
		}
		in := &InExpr{Expr: left, Not: not}
		if p.peek().IsKeyword("SELECT") || p.peek().IsKeyword("WITH") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Subquery = sub
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if p.peek().Kind != TokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.peek().IsKeyword("LIKE"):
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		e := Expr(&BinaryExpr{Op: "LIKE", Left: left, Right: right})
		if not {
			e = &UnaryExpr{Op: "NOT", Expr: e}
		}
		return e, nil
	case p.peek().IsKeyword("IS"):
		p.advance()
		isNot := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		op := "IS NULL"
		if isNot {
			op = "IS NOT NULL"
		}
		return &UnaryExpr{Op: op, Expr: left}, nil
	}
	return left, nil
}

func refIsComparison(op string) bool {
	switch op {
	case "=", "<", ">", "<=", ">=", "<>", "!=", "!<", "!>":
		return true
	}
	return false
}

func (p *refParser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.peek().Kind == TokOperator && refIsAdditiveOp(p.peek().Text) {
		op := p.advance().Text
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func refIsAdditiveOp(op string) bool {
	switch op {
	case "+", "-", "&", "|", "^", "||":
		return true
	}
	return false
}

func (p *refParser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for (p.peek().Kind == TokStar) ||
		(p.peek().Kind == TokOperator && (p.peek().Text == "/" || p.peek().Text == "%")) {
		op := p.advance().Text
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
	return left, nil
}

func (p *refParser) parseUnary() (Expr, error) {
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

func (p *refParser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.advance()
		return &Literal{Kind: "number", Text: t.Text, Value: refParseNumber(t.Text)}, nil
	case TokString:
		p.advance()
		return &Literal{Kind: "string", Text: t.Text}, nil
	case TokStar:
		p.advance()
		return &StarExpr{}, nil
	case TokLParen:
		p.advance()
		if p.peek().IsKeyword("SELECT") || p.peek().IsKeyword("WITH") {
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen, ")"); err != nil {
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
			if _, err := p.expect(TokLParen, "("); err != nil {
				return nil, err
			}
			sel, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRParen, ")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Subquery: sel}, nil
		}
		return p.parseNameOrCall()
	default:
		return nil, p.errorf("unexpected token %q in expression", t.Text)
	}
}

func (p *refParser) parseCase() (Expr, error) {
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
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *refParser) parseCast() (Expr, error) {
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
	tok, err := p.expect(TokIdent, "type name")
	if err != nil {
		return nil, err
	}
	typ := tok.Text
	if p.peek().Kind == TokLParen {
		p.advance()
		for p.peek().Kind != TokRParen && p.peek().Kind != TokEOF {
			p.advance()
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen, ")"); err != nil {
		return nil, err
	}
	return &CastExpr{Expr: inner, Type: typ}, nil
}

// parseNameOrCall parses a possibly qualified identifier which may be a
// column reference or a function call.
func (p *refParser) parseNameOrCall() (Expr, error) {
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
	if p.peek().Kind == TokLParen {
		p.advance()
		call := &FuncCall{
			Name:     strings.Join(parts, "."),
			BareName: parts[len(parts)-1],
		}
		if p.acceptKeyword("DISTINCT") {
			call.Distinct = true
		}
		if p.peek().Kind == TokStar {
			p.advance()
			call.Star = true
		} else if p.peek().Kind != TokRParen {
			for {
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.peek().Kind != TokComma {
					break
				}
				p.advance()
			}
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
		return call, nil
	}
	return &ColumnRef{Parts: parts}, nil
}

func refParseNumber(text string) float64 {
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

func (p *refParser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	p.acceptKeyword("INTO")
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: table}
	if p.peek().Kind == TokLParen && !p.peek2().IsKeyword("SELECT") {
		p.advance()
		for {
			tok, err := p.expect(TokIdent, "column name")
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, tok.Text)
			if p.peek().Kind != TokComma {
				break
			}
			p.advance()
		}
		if _, err := p.expect(TokRParen, ")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.peek().IsKeyword("VALUES"):
		p.advance()
		for {
			if _, err := p.expect(TokLParen, "("); err != nil {
				return nil, err
			}
			for {
				if _, err := p.parseExpr(); err != nil {
					return nil, err
				}
				if p.peek().Kind != TokComma {
					break
				}
				p.advance()
			}
			if _, err := p.expect(TokRParen, ")"); err != nil {
				return nil, err
			}
			ins.Rows++
			if p.peek().Kind != TokComma {
				break
			}
			p.advance()
		}
	case p.peek().IsKeyword("SELECT") || p.peek().Kind == TokLParen:
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Select = sel
	default:
		return nil, p.errorf("expected VALUES or SELECT, found %q", p.peek().Text)
	}
	return ins, nil
}

func (p *refParser) parseUpdate() (Statement, error) {
	p.advance() // UPDATE
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseTableName() // reuse dotted-name parsing
		if err != nil {
			return nil, err
		}
		if p.peek().Kind != TokOperator || p.peek().Text != "=" {
			return nil, p.errorf("expected = in SET, found %q", p.peek().Text)
		}
		p.advance()
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Sets = append(upd.Sets, SetClause{Column: strings.Join(col.Parts, "."), Value: val})
		if p.peek().Kind != TokComma {
			break
		}
		p.advance()
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *refParser) parseDelete() (Statement, error) {
	p.advance() // DELETE
	p.acceptKeyword("FROM")
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *refParser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	what := p.peek().Upper()
	switch what {
	case "TABLE", "VIEW", "INDEX", "FUNCTION", "PROCEDURE", "UNIQUE", "CLUSTERED":
		p.advance()
		if what == "UNIQUE" || what == "CLUSTERED" {
			p.acceptKeyword("INDEX")
			what = "INDEX"
		}
	default:
		return nil, p.errorf("unsupported CREATE %q", p.peek().Text)
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	// Consume the remainder of the definition without validation: the
	// workload treats DDL bodies opaquely.
	p.skipBalancedToEnd()
	return &CreateStmt{What: what, Name: name}, nil
}

func (p *refParser) parseDrop() (Statement, error) {
	p.advance() // DROP
	what := p.peek().Upper()
	switch what {
	case "TABLE", "VIEW", "INDEX", "FUNCTION", "PROCEDURE":
		p.advance()
	default:
		return nil, p.errorf("unsupported DROP %q", p.peek().Text)
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	return &DropStmt{What: what, Name: name}, nil
}

func (p *refParser) parseAlter() (Statement, error) {
	p.advance() // ALTER
	what := p.peek().Upper()
	switch what {
	case "TABLE", "VIEW", "INDEX":
		p.advance()
	default:
		return nil, p.errorf("unsupported ALTER %q", p.peek().Text)
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	p.skipBalancedToEnd()
	return &AlterStmt{What: what, Name: name}, nil
}

func (p *refParser) parseExec() (Statement, error) {
	p.advance() // EXEC / EXECUTE
	proc, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ex := &ExecStmt{Proc: strings.Join(proc.Parts, ".")}
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
func (p *refParser) skipBalancedToEnd() {
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
