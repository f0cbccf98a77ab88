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
	"unicode/utf8"

	"repro/internal/sqllex"
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
// comments. It walks the input's bytes: i is the byte offset and pos the
// rune offset Token.Pos reports, counted as the walk advances. The input
// is valid UTF-8 (lexState.lex makes it so), so a byte below
// utf8.RuneSelf is a whole rune, no byte of a longer rune equals an
// ASCII one, and a token's text is the slice of input it covers.
type lexer struct {
	src string
	i   int
	pos int
}

// lexState is the reusable tokenizer state threaded through the pooled
// parsing path: the token slice, recycled across queries (the sync.Pool
// parser idiom used by production SQL frontends). Token.Text values are
// substrings of the input, so AST nodes built from pooled tokens stay
// valid after release and keep the statement they came from alive.
type lexState struct {
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
// buffer whatever it held before. Input that is not valid UTF-8 is
// first rewritten as its runes, each bad byte becoming U+FFFD as range
// decodes it, so texts and positions are those of the decoded runes.
func (st *lexState) lex(input string) {
	if !utf8.ValidString(input) {
		input = string([]rune(input))
	}
	lx := lexer{src: input}
	st.toks = st.toks[:0]
	for {
		tok := lx.next()
		st.toks = append(st.toks, tok)
		if tok.Kind == TokEOF {
			return
		}
	}
}

// releaseToks returns pooled tokenizer state, its tokens zeroed so the
// pool holds no statement text.
func releaseToks(st *lexState) {
	clear(st.toks)
	lexPool.Put(st)
}

// runeAt decodes the rune at byte offset j < len(lx.src).
func (lx *lexer) runeAt(j int) (rune, int) {
	if b := lx.src[j]; b < utf8.RuneSelf {
		return rune(b), 1
	}
	return utf8.DecodeRuneInString(lx.src[j:])
}

// byteAt returns the byte at offset j, or 0 past the end.
func (lx *lexer) byteAt(j int) byte {
	if j < len(lx.src) {
		return lx.src[j]
	}
	return 0
}

// advance moves past one rune of w bytes.
func (lx *lexer) advance(w int) {
	lx.i += w
	lx.pos++
}

// skipTo moves to byte offset j, counting the runes passed.
func (lx *lexer) skipTo(j int) {
	lx.pos += utf8.RuneCountInString(lx.src[lx.i:j])
	lx.i = j
}

// skipPast moves past the first sep at or after byte offset j, or to
// the end of input when there is none.
func (lx *lexer) skipPast(j int, sep string) {
	if k := strings.Index(lx.src[j:], sep); k >= 0 {
		lx.skipTo(j + k + len(sep))
		return
	}
	lx.skipTo(len(lx.src))
}

func (lx *lexer) next() Token {
	lx.skipSpaceAndComments()
	start, pos := lx.i, lx.pos
	if start >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}
	}
	r, w := lx.runeAt(start)
	kind := TokOperator
	switch {
	case sqllex.IsIdentStart(r):
		end, runes := sqllex.IdentEnd(lx.src, start)
		lx.i = end
		lx.pos += runes
		kind = TokIdent
	case unicode.IsDigit(r):
		lx.lexNumber()
		kind = TokNumber
	case r == '\'':
		lx.skipTo(sqllex.LiteralEnd(lx.src, start))
		kind = TokString
	case r == '"':
		lx.skipPast(start+1, `"`)
		kind = TokIdent
	case r == '[':
		lx.skipPast(start+1, "]")
		kind = TokIdent
	case r == '(':
		lx.advance(1)
		kind = TokLParen
	case r == ')':
		lx.advance(1)
		kind = TokRParen
	case r == ',':
		lx.advance(1)
		kind = TokComma
	case r == '.':
		lx.advance(1)
		kind = TokDot
	case r == ';':
		lx.advance(1)
		kind = TokSemicolon
	case r == '*':
		lx.advance(1)
		kind = TokStar
	default:
		// Multi-character operators.
		if start+1 < len(lx.src) {
			switch lx.src[start : start+2] {
			case "<=", ">=", "<>", "!=", "||", "!<", "!>":
				lx.i += 2
				lx.pos += 2
				return Token{Kind: TokOperator, Text: lx.src[start:lx.i], Pos: pos}
			}
		}
		lx.advance(w)
	}
	return Token{Kind: kind, Text: lx.src[start:lx.i], Pos: pos}
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.i < len(lx.src) {
		r, w := lx.runeAt(lx.i)
		switch {
		case unicode.IsSpace(r):
			lx.advance(w)
		case r == '-' && lx.byteAt(lx.i+1) == '-':
			if k := strings.IndexByte(lx.src[lx.i:], '\n'); k >= 0 {
				lx.skipTo(lx.i + k)
			} else {
				lx.skipTo(len(lx.src))
			}
		case r == '/' && lx.byteAt(lx.i+1) == '*':
			lx.skipPast(lx.i+2, "*/")
		default:
			return
		}
	}
}

func (lx *lexer) lexNumber() {
	// Hex literal (SDSS object ids).
	if lx.src[lx.i] == '0' && (lx.byteAt(lx.i+1) == 'x' || lx.byteAt(lx.i+1) == 'X') {
		lx.i += 2
		lx.pos += 2
		for lx.i < len(lx.src) {
			r, w := lx.runeAt(lx.i)
			if !sqllex.IsHexDigit(r) {
				return
			}
			lx.advance(w)
		}
		return
	}
	seenDot, seenExp := false, false
	for lx.i < len(lx.src) {
		r, w := lx.runeAt(lx.i)
		switch {
		case unicode.IsDigit(r):
			lx.advance(w)
		case r == '.' && !seenDot && !seenExp:
			seenDot = true
			lx.advance(w)
		case (r == 'e' || r == 'E') && !seenExp && lx.i+1 < len(lx.src) && lx.expSign(lx.i+1):
			seenExp = true
			lx.advance(w)
			_, w = lx.runeAt(lx.i)
			lx.advance(w)
		default:
			return
		}
	}
}

// expSign reports whether the rune at byte offset j may follow an
// exponent's e: a digit or a sign.
func (lx *lexer) expSign(j int) bool {
	r, _ := lx.runeAt(j)
	return unicode.IsDigit(r) || r == '+' || r == '-'
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
