package sqlparse

import (
	"unicode"

	"repro/internal/sqllex"
)

// runeLexer is the lexer as it was first written: it copies the input
// into a []rune and turns every token back into a fresh string. It is
// kept, unchanged but for its name, as the reference FuzzLexMatchesRunes
// holds the byte lexer to — kinds, texts and rune positions equal on
// any input.
type runeLexer struct {
	runes []rune
	pos   int
}

// runeLex tokenizes input with the reference lexer, ending in TokEOF.
func runeLex(input string) []Token {
	lx := runeLexer{}
	for _, r := range input {
		lx.runes = append(lx.runes, r)
	}
	var toks []Token
	for {
		tok := lx.next()
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks
		}
	}
}

func (lx *runeLexer) next() Token {
	lx.skipSpaceAndComments()
	if lx.pos >= len(lx.runes) {
		return Token{Kind: TokEOF, Pos: lx.pos}
	}
	start := lx.pos
	r := lx.runes[lx.pos]
	switch {
	case sqllex.IsIdentStart(r):
		for lx.pos < len(lx.runes) && sqllex.IsIdentPart(lx.runes[lx.pos]) {
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

func (lx *runeLexer) skipSpaceAndComments() {
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

func (lx *runeLexer) lexNumber() {
	// Hex literal (SDSS object ids).
	if lx.runes[lx.pos] == '0' && lx.pos+1 < len(lx.runes) &&
		(lx.runes[lx.pos+1] == 'x' || lx.runes[lx.pos+1] == 'X') {
		lx.pos += 2
		for lx.pos < len(lx.runes) && sqllex.IsHexDigit(lx.runes[lx.pos]) {
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

func (lx *runeLexer) lexString() {
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

func (lx *runeLexer) lexQuotedIdent(open rune) {
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
