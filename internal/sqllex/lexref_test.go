package sqllex

import "unicode"

// The tokenizers as they were first written: they copy the query into a
// []rune and turn every word token back into a fresh string. They are
// kept, unchanged but for their names, as the reference the byte
// scanners are held to: Words, Chars and both Encoder modes must give
// the tokens of runeWords and runeChars on any input.

// runeWords is Words over the rune scanner.
func runeWords(query string) []string {
	var runes, lit []rune
	for _, r := range query {
		runes = append(runes, r)
	}
	var tokens []string
	runeScanWords(runes, &lit, func(tok []rune, s string) bool {
		if tok != nil {
			s = string(tok)
		}
		tokens = append(tokens, s)
		return true
	})
	return tokens
}

// runeASCIITokens interns the single-character token strings of the ASCII
// range, so character-level tokenization and single-character operator
// tokens do not allocate a fresh string per token.
var runeASCIITokens = func() [128]string {
	var t [128]string
	for i := range t {
		t[i] = string(rune(i))
	}
	return t
}()

// runeCharToken returns the canonical (interned for ASCII) single-character
// token string for r.
func runeCharToken(r rune) string {
	if r >= 0 && r < 128 {
		return runeASCIITokens[r]
	}
	return string(r)
}

// runeChars is Chars over the runes of query.
func runeChars(query string) []string {
	tokens := make([]string, 0, len(query))
	for _, r := range query {
		if unicode.IsSpace(r) {
			continue
		}
		tokens = append(tokens, runeCharToken(r))
	}
	return tokens
}

// runeScanWords is the rune word scanner, the reference for wordScanner.
func runeScanWords(runes []rune, lit *[]rune, emit func(tok []rune, s string) bool) {
	n := len(runes)
	i := 0
	for i < n {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case IsIdentStart(r):
			j := i
			for j < n && IsIdentPart(runes[j]) {
				j++
			}
			if !emit(runes[i:j], "") {
				return
			}
			i = j
		case unicode.IsDigit(r):
			// Hex constants such as SDSS object ids (0x112d075f80360018).
			if r == '0' && i+1 < n && (runes[i+1] == 'x' || runes[i+1] == 'X') {
				j := i + 2
				for j < n && IsHexDigit(runes[j]) {
					j++
				}
				if !emit(nil, DigitToken) {
					return
				}
				i = j
				continue
			}
			j := i
			for j < n && (unicode.IsDigit(runes[j]) || runes[j] == '.' ||
				((runes[j] == 'e' || runes[j] == 'E') && j+1 < n && (unicode.IsDigit(runes[j+1]) || runes[j+1] == '+' || runes[j+1] == '-')) ||
				((runes[j] == '+' || runes[j] == '-') && j > i && (runes[j-1] == 'e' || runes[j-1] == 'E'))) {
				j++
			}
			if !emit(nil, DigitToken) {
				return
			}
			i = j
		case r == '\'':
			j := i + 1
			for j < n {
				if runes[j] == '\'' {
					if j+1 < n && runes[j+1] == '\'' { // escaped quote
						j += 2
						continue
					}
					j++
					break
				}
				j++
			}
			if !emit(normalizeLiteralRunes(runes[i:j], lit), "") {
				return
			}
			i = j
		case r == '"' || r == '[':
			close := '"'
			if r == '[' {
				close = ']'
			}
			j := i + 1
			for j < n && runes[j] != close {
				j++
			}
			if j < n {
				j++
			}
			if !emit(runes[i:j], "") {
				return
			}
			i = j
		default:
			// Multi-character operators first.
			if i+1 < n {
				if op := twoCharOp(r, runes[i+1]); op != "" {
					if !emit(nil, op) {
						return
					}
					i += 2
					continue
				}
			}
			if !emit(nil, runeCharToken(r)) {
				return
			}
			i++
		}
	}
}

// twoCharOp returns the interned two-character operator starting with
// (a, b), or "" when the pair is not an operator.
func twoCharOp(a, b rune) string {
	switch a {
	case '<':
		if b == '=' {
			return "<="
		}
		if b == '>' {
			return "<>"
		}
	case '>':
		if b == '=' {
			return ">="
		}
	case '!':
		if b == '=' {
			return "!="
		}
	case '|':
		if b == '|' {
			return "||"
		}
	case '-':
		if b == '-' {
			return "--"
		}
	case '/':
		if b == '*' {
			return "/*"
		}
	case '*':
		if b == '/' {
			return "*/"
		}
	}
	return ""
}

// normalizeLiteralRunes replaces digit runs inside a quoted string
// literal with a '#' marker so that constant-only variations of the
// same template map to the same token, writing the result into *dst
// (grown as needed) and returning it.
func normalizeLiteralRunes(litRunes []rune, dst *[]rune) []rune {
	out := (*dst)[:0]
	inDigits := false
	for _, r := range litRunes {
		if unicode.IsDigit(r) {
			if !inDigits {
				out = append(out, '#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		out = append(out, r)
	}
	*dst = out
	return out
}
