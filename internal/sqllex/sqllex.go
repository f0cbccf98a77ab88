// Package sqllex provides tokenizers for SQL query text.
//
// The paper (Definition 1) models a query as a sequence of tokens drawn
// from one of two vocabularies: characters or words. Word-level
// tokenization replaces runs of digits with a <DIGIT> token to control
// vocabulary growth (Section 4.4.1). Both tokenizers must be robust to
// arbitrary input: real workloads such as SDSS contain entries ranging
// from valid SQL to random natural-language text.
package sqllex

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// DigitToken is the placeholder substituted for numeric literals in
// word-level tokenization, per Section 4.4.1 of the paper.
const DigitToken = "<DIGIT>"

// UnknownToken is the placeholder used by vocabularies for
// out-of-vocabulary tokens.
const UnknownToken = "<UNK>"

// Chars splits a query into character-level tokens. Whitespace runs are
// collapsed and dropped, matching the paper's character counting
// convention ("48 tokens at the character level (excluding spaces)").
// Each token is the substring of query its rune covers, so Chars
// allocates the result slice and nothing else.
func Chars(query string) []string {
	tokens := make([]string, 0, len(query))
	for i := 0; i < len(query); {
		var tok string
		if tok, i = nextChar(query, i); tok != "" {
			tokens = append(tokens, tok)
		}
	}
	return tokens
}

// badRune is the token of a byte that begins no valid UTF-8 rune.
const badRune = string(utf8.RuneError)

// nextChar returns the character token at byte offset i of s and the
// offset after it. The token is the rune's own bytes, badRune for a
// byte that begins no valid rune (as range decodes it), or "" for
// whitespace, which is not a token.
func nextChar(s string, i int) (tok string, next int) {
	if b := s[i]; b < utf8.RuneSelf {
		if spaceByte[b] {
			return "", i + 1
		}
		return s[i : i+1], i + 1
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	switch {
	case unicode.IsSpace(r):
		return "", i + w
	case r == utf8.RuneError && w == 1:
		return badRune, i + 1
	}
	return s[i : i+w], i + w
}

// Words splits a query into word-level tokens. Identifiers and keywords
// become single tokens; punctuation and operators are tokens of their
// own; numeric literals are replaced by DigitToken. SQL string literals
// are kept as single tokens (their content is usually a constant and is
// digit-normalized as well). Every token but DigitToken and a literal
// whose digits were normalized is a substring of query, so Words
// allocates the result slice and one string per normalized literal
// (and, for input that is not valid UTF-8, one decoded copy of it).
func Words(query string) []string {
	sc := newWordScanner(query)
	// Word tokens run ~4 characters on average in SQL text; pre-size to
	// avoid growth reallocations on typical statements.
	tokens := make([]string, 0, len(sc.src)/4+4)
	var scratch [64]byte
	for tok := sc.next(); tok != ""; tok = sc.next() {
		if lit := normalized(tok, scratch[:0]); lit != nil {
			tok = string(lit)
		}
		tokens = append(tokens, tok)
	}
	return tokens
}

// wordScanner is the word tokenizer: it walks a statement's bytes and
// hands out one token per next call, the substring of the statement it
// covers (DigitToken for a numeric constant). A string literal comes
// out as written; normalized gives its token. Words and Encoder share
// the scanner, so the string and id pipelines cannot drift apart.
type wordScanner struct {
	src string // the statement, valid UTF-8
	i   int    // byte offset of the next token
}

// newWordScanner starts a scan of query. Input that is not valid UTF-8
// is first rewritten as its runes, each bad byte becoming U+FFFD as
// range decodes it, so the tokens are those of the decoded runes.
func newWordScanner(query string) wordScanner {
	if !utf8.ValidString(query) {
		query = string([]rune(query))
	}
	return wordScanner{src: query}
}

// next returns the next token, or "" at the end of the statement.
func (sc *wordScanner) next() string {
	s := sc.src
	for sc.i < len(s) {
		i := sc.i
		r, w := runeAt(s, i)
		switch {
		case unicode.IsSpace(r):
			sc.i += w
			continue
		case IsIdentStart(r):
			sc.i, _ = IdentEnd(s, i)
		case unicode.IsDigit(r):
			sc.i = numberEnd(s, i)
			return DigitToken
		case r == '\'':
			sc.i = LiteralEnd(s, i)
		case r == '"' || r == '[':
			close := byte('"')
			if r == '[' {
				close = ']'
			}
			sc.i = len(s)
			if k := strings.IndexByte(s[i+1:], close); k >= 0 {
				sc.i = i + k + 2
			}
		default:
			sc.i = i + w
			if i+2 <= len(s) {
				switch s[i : i+2] {
				case "<=", "<>", ">=", "!=", "||", "--", "/*", "*/":
					sc.i = i + 2
				}
			}
		}
		return s[i:sc.i]
	}
	return ""
}

// numberEnd returns the byte offset past the numeric constant starting
// at byte offset i of s: a hex constant such as an SDSS object id
// (0x112d075f80360018), or a run of digits, dots and exponents.
func numberEnd(s string, i int) int {
	j := i
	if s[i] == '0' && i+1 < len(s) && (s[i+1] == 'x' || s[i+1] == 'X') {
		for j += 2; j < len(s); {
			r, w := runeAt(s, j)
			if !IsHexDigit(r) {
				break
			}
			j += w
		}
		return j
	}
	for j < len(s) {
		r, w := runeAt(s, j)
		switch {
		case unicode.IsDigit(r) || r == '.':
		case r == 'e' || r == 'E':
			if j+w == len(s) {
				return j
			}
			if n, _ := runeAt(s, j+w); !unicode.IsDigit(n) && n != '+' && n != '-' {
				return j
			}
		case r == '+' || r == '-':
			// An exponent's sign; j > i, as s[i] is a digit.
			if s[j-1] != 'e' && s[j-1] != 'E' {
				return j
			}
		default:
			return j
		}
		j += w
	}
	return j
}

// normalized returns the token of the word s when s is a string literal
// holding digits: s with each run of digits replaced by one '#', so that
// constant-only variations of the same template map to the same token,
// built in buf's backing array. It returns nil for any other word, which
// is its own token.
func normalized(s string, buf []byte) []byte {
	if s[0] != '\'' {
		return nil
	}
	out, done := buf[:0], 0 // s[:done] is in out
	for i := 0; i < len(s); {
		r, w := runeAt(s, i)
		if !unicode.IsDigit(r) {
			i += w
			continue
		}
		out = append(append(out, s[done:i]...), '#')
		for i < len(s) {
			if r, w = runeAt(s, i); !unicode.IsDigit(r) {
				break
			}
			i += w
		}
		done = i
	}
	if done == 0 { // s opens with a quote, so done > 0 once a run was replaced
		return nil
	}
	return append(out, s[done:]...)
}

// Vocabulary maps tokens to dense integer ids. Index 0 is reserved for
// the unknown token. A vocabulary stores its own copy of each token, so
// it keeps no statement it was built from alive.
type Vocabulary struct {
	index map[string]int
	words []string
	ascii [utf8.RuneSelf]int // ids of the single-byte tokens, 0 if absent
}

// NewVocabulary creates a vocabulary whose id 0 is UnknownToken.
func NewVocabulary() *Vocabulary {
	v := &Vocabulary{index: make(map[string]int)}
	v.Add(UnknownToken)
	return v
}

// Add inserts a token, returning its id. Adding an existing token is a
// no-op that returns the existing id.
func (v *Vocabulary) Add(tok string) int {
	if id, ok := v.index[tok]; ok {
		return id
	}
	return v.put(tok)
}

// put appends a copy of tok, absent from v, as the next id.
func (v *Vocabulary) put(tok string) int {
	tok = strings.Clone(tok)
	id := len(v.words)
	v.index[tok] = id
	v.words = append(v.words, tok)
	if len(tok) == 1 && tok[0] < utf8.RuneSelf {
		v.ascii[tok[0]] = id
	}
	return id
}

// ID returns the id for tok, or 0 (unknown) if absent.
func (v *Vocabulary) ID(tok string) int {
	if len(tok) == 1 && tok[0] < utf8.RuneSelf {
		return v.ascii[tok[0]]
	}
	return v.index[tok]
}

// Token returns the token string for an id.
func (v *Vocabulary) Token(id int) string {
	if id < 0 || id >= len(v.words) {
		return UnknownToken
	}
	return v.words[id]
}

// Size returns the number of tokens including UnknownToken.
func (v *Vocabulary) Size() int { return len(v.words) }

// Tokens returns the vocabulary's tokens in id order (index 0 is
// UnknownToken). The returned slice is shared with the vocabulary and
// must not be mutated; it is the serialization surface of a trained
// model's encoder state.
func (v *Vocabulary) Tokens() []string { return v.words }

// VocabularyFromTokens rebuilds a vocabulary from an id-ordered token
// list, the inverse of Tokens. The list must start with UnknownToken
// and contain no duplicates — the invariants every built vocabulary
// holds — so a vocabulary decoded from a stored artifact encodes
// statements exactly like the one that was saved.
func VocabularyFromTokens(tokens []string) (*Vocabulary, error) {
	if len(tokens) == 0 || tokens[0] != UnknownToken {
		return nil, fmt.Errorf("sqllex: vocabulary must start with the unknown token %q", UnknownToken)
	}
	v := &Vocabulary{index: make(map[string]int, len(tokens))}
	for _, tok := range tokens {
		if _, dup := v.index[tok]; dup {
			return nil, fmt.Errorf("sqllex: duplicate vocabulary token %q", tok)
		}
		v.put(tok)
	}
	return v, nil
}

// Encode maps tokens to ids, truncating to maxLen when maxLen > 0. The
// result is freshly allocated at its exact final size.
func (v *Vocabulary) Encode(tokens []string, maxLen int) []int {
	n := len(tokens)
	if maxLen > 0 && n > maxLen {
		n = maxLen
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = v.ID(tokens[i])
	}
	return ids
}

// BuildVocabulary constructs a vocabulary from token sequences keeping
// the maxSize most frequent tokens (0 means unbounded). Ties are broken
// by first appearance for determinism.
func BuildVocabulary(sequences [][]string, maxSize int) *Vocabulary {
	type tokCount struct {
		tok   string
		count int
		first int
	}
	counts := make(map[string]*tokCount)
	order := 0
	for _, seq := range sequences {
		for _, tok := range seq {
			tc, ok := counts[tok]
			if !ok {
				tc = &tokCount{tok: tok, first: order}
				counts[tok] = tc
				order++
			}
			tc.count++
		}
	}
	all := make([]*tokCount, 0, len(counts))
	for _, tc := range counts {
		all = append(all, tc)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].first < all[j].first
	})
	v := NewVocabulary()
	for _, tc := range all {
		if maxSize > 0 && v.Size() >= maxSize {
			break
		}
		v.Add(tc.tok)
	}
	return v
}
