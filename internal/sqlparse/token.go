// Package sqlparse implements a hand-written lexer and recursive-descent
// parser for the SQL dialect observed in the SDSS and SQLShare
// workloads, together with the extraction of the ten syntactic
// properties defined in Section 4.3.1 of the paper.
//
// The paper used the ANTLR parser to build abstract syntax trees; this
// package is the stdlib-only substitute. It is deliberately tolerant:
// real workload entries range from valid multi-statement SQL to random
// natural-language text, and the parser must classify those as parse
// failures without panicking.
package sqlparse

import (
	"fmt"
	"strings"
	"sync"
	"unicode"
)

// TokenKind identifies the lexical class of a token.
type TokenKind int

// Token kinds produced by the lexer.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokNumber
	TokString
	TokOperator
	TokLParen
	TokRParen
	TokComma
	TokDot
	TokSemicolon
	TokStar
)

// Token is a lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // rune offset in the input
}

// Upper returns the token text upper-cased; handy for keyword matching.
func (t Token) Upper() string { return strings.ToUpper(t.Text) }

// IsKeyword reports whether the token is the given keyword
// (case-insensitive identifier match).
func (t Token) IsKeyword(kw string) bool {
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// lexer turns an input string into tokens, skipping whitespace and
// comments.
type lexer struct {
	runes []rune
	pos   int
}

// lexState is the reusable tokenizer state threaded through the pooled
// parsing path: the lexer's rune buffer plus the token slice, both
// recycled across queries (the sync.Pool parser idiom used by
// production SQL frontends). Token.Text values are fresh strings, so
// AST nodes built from pooled tokens stay valid after release.
type lexState struct {
	lx   lexer
	toks []Token
}

var lexPool = sync.Pool{New: func() any { return new(lexState) }}

// borrowToks lexes input into pooled state. Callers must call
// releaseToks when done with the token slice and must not retain it.
func borrowToks(input string) *lexState {
	st := lexPool.Get().(*lexState)
	st.lex(input)
	return st
}

// lex tokenizes input into st.toks (ending in TokEOF), reusing st's
// buffers whatever they held before.
func (st *lexState) lex(input string) {
	st.lx.runes = st.lx.runes[:0]
	for _, r := range input {
		st.lx.runes = append(st.lx.runes, r)
	}
	st.lx.pos = 0
	st.toks = st.toks[:0]
	for {
		tok := st.lx.next()
		st.toks = append(st.toks, tok)
		if tok.Kind == TokEOF {
			return
		}
	}
}

// releaseToks returns pooled tokenizer state.
func releaseToks(st *lexState) { lexPool.Put(st) }

func (lx *lexer) next() Token {
	lx.skipSpaceAndComments()
	if lx.pos >= len(lx.runes) {
		return Token{Kind: TokEOF, Pos: lx.pos}
	}
	start := lx.pos
	r := lx.runes[lx.pos]
	switch {
	case isIdentStart(r):
		for lx.pos < len(lx.runes) && isIdentPart(lx.runes[lx.pos]) {
			lx.pos++
		}
		return Token{Kind: TokIdent, Text: string(lx.runes[start:lx.pos]), Pos: start}
	case unicode.IsDigit(r):
		lx.lexNumber()
		return Token{Kind: TokNumber, Text: string(lx.runes[start:lx.pos]), Pos: start}
	case r == '\'':
		lx.lexString()
		return Token{Kind: TokString, Text: string(lx.runes[start:lx.pos]), Pos: start}
	case r == '"' || r == '[':
		lx.lexQuotedIdent(r)
		return Token{Kind: TokIdent, Text: string(lx.runes[start:lx.pos]), Pos: start}
	case r == '(':
		lx.pos++
		return Token{Kind: TokLParen, Text: "(", Pos: start}
	case r == ')':
		lx.pos++
		return Token{Kind: TokRParen, Text: ")", Pos: start}
	case r == ',':
		lx.pos++
		return Token{Kind: TokComma, Text: ",", Pos: start}
	case r == '.':
		lx.pos++
		return Token{Kind: TokDot, Text: ".", Pos: start}
	case r == ';':
		lx.pos++
		return Token{Kind: TokSemicolon, Text: ";", Pos: start}
	case r == '*':
		lx.pos++
		return Token{Kind: TokStar, Text: "*", Pos: start}
	default:
		// Multi-character operators.
		if lx.pos+1 < len(lx.runes) {
			two := string(lx.runes[lx.pos : lx.pos+2])
			switch two {
			case "<=", ">=", "<>", "!=", "||", "!<", "!>":
				lx.pos += 2
				return Token{Kind: TokOperator, Text: two, Pos: start}
			}
		}
		lx.pos++
		return Token{Kind: TokOperator, Text: string(r), Pos: start}
	}
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.runes) {
		r := lx.runes[lx.pos]
		switch {
		case unicode.IsSpace(r):
			lx.pos++
		case r == '-' && lx.pos+1 < len(lx.runes) && lx.runes[lx.pos+1] == '-':
			for lx.pos < len(lx.runes) && lx.runes[lx.pos] != '\n' {
				lx.pos++
			}
		case r == '/' && lx.pos+1 < len(lx.runes) && lx.runes[lx.pos+1] == '*':
			lx.pos += 2
			for lx.pos+1 < len(lx.runes) && !(lx.runes[lx.pos] == '*' && lx.runes[lx.pos+1] == '/') {
				lx.pos++
			}
			if lx.pos+1 < len(lx.runes) {
				lx.pos += 2
			} else {
				lx.pos = len(lx.runes)
			}
		default:
			return
		}
	}
}

func (lx *lexer) lexNumber() {
	// Hex literal (SDSS object ids).
	if lx.runes[lx.pos] == '0' && lx.pos+1 < len(lx.runes) &&
		(lx.runes[lx.pos+1] == 'x' || lx.runes[lx.pos+1] == 'X') {
		lx.pos += 2
		for lx.pos < len(lx.runes) && isHex(lx.runes[lx.pos]) {
			lx.pos++
		}
		return
	}
	seenDot, seenExp := false, false
	for lx.pos < len(lx.runes) {
		r := lx.runes[lx.pos]
		switch {
		case unicode.IsDigit(r):
			lx.pos++
		case r == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.pos++
		case (r == 'e' || r == 'E') && !seenExp && lx.pos+1 < len(lx.runes) &&
			(unicode.IsDigit(lx.runes[lx.pos+1]) || lx.runes[lx.pos+1] == '+' || lx.runes[lx.pos+1] == '-'):
			seenExp = true
			lx.pos += 2
		default:
			return
		}
	}
}

func (lx *lexer) lexString() {
	lx.pos++ // opening quote
	for lx.pos < len(lx.runes) {
		if lx.runes[lx.pos] == '\'' {
			if lx.pos+1 < len(lx.runes) && lx.runes[lx.pos+1] == '\'' {
				lx.pos += 2
				continue
			}
			lx.pos++
			return
		}
		lx.pos++
	}
}

func (lx *lexer) lexQuotedIdent(open rune) {
	close := '"'
	if open == '[' {
		close = ']'
	}
	lx.pos++
	for lx.pos < len(lx.runes) && lx.runes[lx.pos] != close {
		lx.pos++
	}
	if lx.pos < len(lx.runes) {
		lx.pos++
	}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '@' || r == '#'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$' || r == '@' || r == '#'
}

func isHex(r rune) bool {
	return unicode.IsDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

// ParseError describes a failure to parse a statement, with the rune
// position of the offending token.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sqlparse: %s at position %d", e.Msg, e.Pos)
}
