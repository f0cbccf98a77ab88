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
	"sync"
	"unicode"
)

// DigitToken is the placeholder substituted for numeric literals in
// word-level tokenization, per Section 4.4.1 of the paper.
const DigitToken = "<DIGIT>"

// UnknownToken is the placeholder used by vocabularies for
// out-of-vocabulary tokens.
const UnknownToken = "<UNK>"

// asciiTokens interns the single-character token strings of the ASCII
// range, so character-level tokenization and single-character operator
// tokens do not allocate a fresh string per token.
var asciiTokens = func() [128]string {
	var t [128]string
	for i := range t {
		t[i] = string(rune(i))
	}
	return t
}()

// charToken returns the canonical (interned for ASCII) single-character
// token string for r.
func charToken(r rune) string {
	if r >= 0 && r < 128 {
		return asciiTokens[r]
	}
	return string(r)
}

// Chars splits a query into character-level tokens. Whitespace runs are
// collapsed and dropped, matching the paper's character counting
// convention ("48 tokens at the character level (excluding spaces)").
// Token strings are interned for the ASCII range.
func Chars(query string) []string {
	tokens := make([]string, 0, len(query))
	for _, r := range query {
		if unicode.IsSpace(r) {
			continue
		}
		tokens = append(tokens, charToken(r))
	}
	return tokens
}

// wordScratch is the reusable state of one word-tokenizer run: the
// decoded rune buffer plus the normalized-literal scratch.
type wordScratch struct {
	runes, lit []rune
}

// wordScratchPool recycles tokenizer scratch so repeated tokenization
// (workload generation, feature extraction, vocabulary building) stops
// re-allocating it per query.
var wordScratchPool = sync.Pool{
	New: func() any {
		return &wordScratch{runes: make([]rune, 0, 256)}
	},
}

// Words splits a query into word-level tokens. Identifiers and keywords
// become single tokens; punctuation and operators are tokens of their
// own; numeric literals are replaced by DigitToken. SQL string literals
// are kept as single tokens (their content is usually a constant and is
// digit-normalized as well).
func Words(query string) []string {
	ws := wordScratchPool.Get().(*wordScratch)
	runes := ws.runes[:0]
	for _, r := range query {
		runes = append(runes, r)
	}
	defer func() {
		ws.runes = runes
		wordScratchPool.Put(ws)
	}()
	// Word tokens run ~4 characters on average in SQL text; pre-size to
	// avoid growth reallocations on typical statements.
	tokens := make([]string, 0, len(runes)/4+4)
	scanWords(runes, &ws.lit, func(tok []rune, s string) bool {
		if tok != nil {
			s = string(tok)
		}
		tokens = append(tokens, s)
		return true
	})
	return tokens
}

// scanWords runs the word tokenizer over runes, invoking emit once per
// token, in order. Each token arrives either as a rune slice (tok) or,
// when it has a canonical interned form (DigitToken, operators,
// single-character punctuation), as a string; exactly one of the two is
// set. tok may alias runes or *lit and is only valid during the call.
// lit is caller-owned scratch for normalized string literals. emit
// returns false to stop the scan early (e.g. when an encoder hit its
// length cap). Words and Encoder share this scanner so the string and
// id pipelines can never drift apart.
func scanWords(runes []rune, lit *[]rune, emit func(tok []rune, s string) bool) {
	n := len(runes)
	i := 0
	for i < n {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case isIdentStart(r):
			j := i
			for j < n && isIdentPart(runes[j]) {
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
				for j < n && isHexDigit(runes[j]) {
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
			if !emit(nil, charToken(r)) {
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

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '@' || r == '#'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '$' || r == '@' || r == '#'
}

func isHexDigit(r rune) bool {
	return unicode.IsDigit(r) || (r >= 'a' && r <= 'f') || (r >= 'A' && r <= 'F')
}

// NGrams returns all n-grams (as joined strings) of the token sequence
// for every order in [1, maxN]. Per Section 5.1 the traditional models
// use bag-of-n-grams up to 5-grams.
func NGrams(tokens []string, maxN int) []string {
	if maxN < 1 {
		return nil
	}
	var grams []string
	for n := 1; n <= maxN; n++ {
		if len(tokens) < n {
			break
		}
		for i := 0; i+n <= len(tokens); i++ {
			grams = append(grams, strings.Join(tokens[i:i+n], "\x1f"))
		}
	}
	return grams
}

// Vocabulary maps tokens to dense integer ids. Index 0 is reserved for
// the unknown token.
type Vocabulary struct {
	index map[string]int
	words []string
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
	id := len(v.words)
	v.index[tok] = id
	v.words = append(v.words, tok)
	return id
}

// ID returns the id for tok, or 0 (unknown) if absent.
func (v *Vocabulary) ID(tok string) int {
	if id, ok := v.index[tok]; ok {
		return id
	}
	return 0
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
		v.index[tok] = len(v.words)
		v.words = append(v.words, tok)
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
