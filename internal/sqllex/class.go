package sqllex

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// The character classes and spans of SQL text, shared by this package's
// scanners and sqlparse's lexer so the two agree on what an identifier,
// a hex digit and a string literal are.

// IsIdentStart reports whether r may begin an identifier.
func IsIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '@' || r == '#'
}

// IsIdentPart reports whether r may continue an identifier.
func IsIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$' || r == '@' || r == '#'
}

// IsHexDigit reports whether r may follow the 0x of a hex constant.
func IsHexDigit(r rune) bool {
	return unicode.IsDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

// identByte[b] is IsIdentPart(rune(b)) and spaceByte[b] is
// unicode.IsSpace(rune(b)) for each ASCII byte b.
var identByte, spaceByte = func() (ident, space [utf8.RuneSelf]bool) {
	for b := range ident {
		ident[b] = IsIdentPart(rune(b))
		space[b] = unicode.IsSpace(rune(b))
	}
	return ident, space
}()

// IdentEnd returns the byte offset just past the run of identifier
// characters (IsIdentPart) that starts at byte offset i of s, a valid
// UTF-8 string, and the number of runes in that run.
func IdentEnd(s string, i int) (end, runes int) {
	for i < len(s) {
		if b := s[i]; b < utf8.RuneSelf {
			if !identByte[b] {
				break
			}
			i++
		} else {
			r, w := utf8.DecodeRuneInString(s[i:])
			if !IsIdentPart(r) {
				break
			}
			i += w
		}
		runes++
	}
	return i, runes
}

// LiteralEnd returns the byte offset just past the quoted string
// literal that starts at byte offset i of s, a doubled quote being an
// escaped one; an unterminated literal runs to the end of s.
func LiteralEnd(s string, i int) int {
	j := i + 1 // past the opening quote
	for {
		k := strings.IndexByte(s[j:], '\'')
		if k < 0 {
			return len(s)
		}
		j += k + 1
		if j == len(s) || s[j] != '\'' {
			return j
		}
		j++
	}
}

// runeAt decodes the rune at byte offset i < len(s).
func runeAt(s string, i int) (rune, int) {
	if b := s[i]; b < utf8.RuneSelf {
		return rune(b), 1
	}
	return utf8.DecodeRuneInString(s[i:])
}
