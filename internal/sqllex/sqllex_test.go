package sqllex

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestCharsExcludesSpaces(t *testing.T) {
	got := Chars("SELECT *")
	want := []string{"S", "E", "L", "E", "C", "T", "*"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Chars = %v, want %v", got, want)
	}
}

func TestCharsPaperExample(t *testing.T) {
	// The paper's Figure 2a query has 48 character tokens excluding
	// spaces: "SELECT * FROM PhotoTag WHERE objId=0x112d075f80360018".
	q := "SELECT * FROM PhotoTag WHERE objId=0x112d075f80360018"
	if got := len(Chars(q)); got != 48 {
		t.Fatalf("len(Chars) = %d, want 48", got)
	}
}

func TestWordsBasic(t *testing.T) {
	got := Words("SELECT * FROM PhotoTag WHERE objId=5")
	want := []string{"SELECT", "*", "FROM", "PhotoTag", "WHERE", "objId", "=", DigitToken}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestWordsPaperExampleTokenCount(t *testing.T) {
	// Figure 2a has 8 word-level tokens.
	q := "SELECT * FROM PhotoTag WHERE objId=0x112d075f80360018"
	if got := len(Words(q)); got != 8 {
		t.Fatalf("len(Words) = %d, want 8: %v", got, Words(q))
	}
}

func TestWordsHexLiteral(t *testing.T) {
	got := Words("objId=0x112d075f80360018")
	want := []string{"objId", "=", DigitToken}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestWordsFloatAndScientific(t *testing.T) {
	got := Words("ra BETWEEN 156.519031-0.2 AND 1e-3")
	want := []string{"ra", "BETWEEN", DigitToken, "-", DigitToken, "AND", DigitToken}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestWordsStringLiteral(t *testing.T) {
	got := Words("flags & dbo.fPhotoFlags('BLENDED') > 0")
	want := []string{"flags", "&", "dbo", ".", "fPhotoFlags", "(", "'BLENDED'", ")", ">", DigitToken}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestWordsEscapedQuote(t *testing.T) {
	got := Words("name = 'O''Brien'")
	want := []string{"name", "=", "'O''Brien'"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestWordsLiteralDigitNormalization(t *testing.T) {
	a := Words("x = 'id 123'")
	b := Words("x = 'id 456'")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("literals with different digits should normalize equal: %v vs %v", a, b)
	}
}

func TestWordsBracketIdentifier(t *testing.T) {
	got := Words("SELECT [my col] FROM t")
	want := []string{"SELECT", "[my col]", "FROM", "t"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestWordsOperators(t *testing.T) {
	got := Words("a<=b AND c<>d")
	want := []string{"a", "<=", "b", "AND", "c", "<>", "d"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Words = %v, want %v", got, want)
	}
}

func TestWordsEmptyAndJunk(t *testing.T) {
	if got := Words(""); len(got) != 0 {
		t.Fatalf("Words(\"\") = %v, want empty", got)
	}
	got := Words("how do I find galaxies?")
	if len(got) == 0 {
		t.Fatal("junk text should still tokenize")
	}
}

func TestVocabularyRoundTrip(t *testing.T) {
	v := NewVocabulary()
	id := v.Add("SELECT")
	if id != 1 {
		t.Fatalf("first Add id = %d, want 1", id)
	}
	if v.ID("SELECT") != 1 || v.Token(1) != "SELECT" {
		t.Fatal("round trip failed")
	}
	if v.ID("missing") != 0 {
		t.Fatal("missing token should map to 0")
	}
	if v.Token(99) != UnknownToken {
		t.Fatal("out-of-range Token should be UnknownToken")
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d, want 2", v.Size())
	}
}

func TestVocabularyAddIdempotent(t *testing.T) {
	v := NewVocabulary()
	a := v.Add("x")
	b := v.Add("x")
	if a != b {
		t.Fatalf("Add not idempotent: %d vs %d", a, b)
	}
}

func TestBuildVocabularyFrequencyOrder(t *testing.T) {
	seqs := [][]string{{"a", "b", "a"}, {"a", "c"}}
	v := BuildVocabulary(seqs, 3)
	// maxSize 3 = UNK + two most frequent: a (3), then b (first seen).
	if v.Size() != 3 {
		t.Fatalf("Size = %d, want 3", v.Size())
	}
	if v.ID("a") == 0 || v.ID("b") == 0 {
		t.Fatalf("expected a and b in vocabulary")
	}
	if v.ID("c") != 0 {
		t.Fatal("c should have been cut by maxSize")
	}
}

func TestBuildVocabularyUnbounded(t *testing.T) {
	seqs := [][]string{{"a", "b", "c"}}
	v := BuildVocabulary(seqs, 0)
	if v.Size() != 4 {
		t.Fatalf("Size = %d, want 4", v.Size())
	}
}

func TestEncodeTruncates(t *testing.T) {
	v := NewVocabulary()
	v.Add("a")
	ids := v.Encode([]string{"a", "a", "a"}, 2)
	if len(ids) != 2 {
		t.Fatalf("len = %d, want 2", len(ids))
	}
}

func TestStatementType(t *testing.T) {
	cases := []struct {
		q, want string
	}{
		{"SELECT * FROM t", "SELECT"},
		{"select top 10 * from t", "SELECT"},
		{"  UPDATE t SET x=1", "UPDATE"},
		{"EXEC sp_help", "EXECUTE"},
		{"EXECUTE sp_help", "EXECUTE"},
		{"CREATE TABLE t (x int)", "CREATE"},
		{"DROP TABLE t", "DROP"},
		{"ALTER TABLE t ADD y int", "ALTER"},
		{"WITH cte AS (SELECT 1) SELECT * FROM cte", "SELECT"},
		{"hello world", "OTHER"},
		{"", "EMPTY"},
		{"   ", "EMPTY"},
	}
	for _, c := range cases {
		if got := StatementType(Words(c.q)); got != c.want {
			t.Errorf("StatementType(%q) = %q, want %q", c.q, got, c.want)
		}
	}
}

func TestIsKeyword(t *testing.T) {
	if !IsKeyword("select") || !IsKeyword("SELECT") {
		t.Fatal("SELECT should be a keyword in any case")
	}
	if IsKeyword("PhotoObj") {
		t.Fatal("PhotoObj is not a keyword")
	}
}

func TestIsAggregateFunction(t *testing.T) {
	if !IsAggregateFunction("min") || !IsAggregateFunction("COUNT") {
		t.Fatal("min/COUNT are aggregates")
	}
	if IsAggregateFunction("fPhotoFlags") {
		t.Fatal("fPhotoFlags is not an aggregate")
	}
}

// Property: word tokens never contain raw digits (they are normalized).
func TestWordsNoRawDigitsProperty(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Words(s) {
			if tok == DigitToken || strings.HasPrefix(tok, "'") ||
				strings.HasPrefix(tok, "\"") || strings.HasPrefix(tok, "[") {
				continue
			}
			// Identifiers may contain digits (e.g. col1); standalone
			// numeric tokens must not survive.
			if len(tok) > 0 && tok[0] >= '0' && tok[0] <= '9' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Chars output joined equals input with spaces removed.
func TestCharsPreservesContentProperty(t *testing.T) {
	f := func(s string) bool {
		joined := strings.Join(Chars(s), "")
		stripped := strings.Map(func(r rune) rune {
			if r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == '\v' || r == '\f' {
				return -1
			}
			return r
		}, s)
		// Only compare when s has no exotic unicode whitespace that
		// strings.Map above does not strip.
		for _, r := range stripped {
			if r != ' ' && isUnicodeSpace(r) {
				return true
			}
		}
		return joined == stripped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func isUnicodeSpace(r rune) bool {
	switch r {
	case ' ', '\t', '\n', '\r', '\v', '\f':
		return false
	}
	return strings.ContainsRune("                 　", r)
}

// Property: tokenizers never panic on arbitrary input.
func TestTokenizersTotalProperty(t *testing.T) {
	f := func(s string) bool {
		_ = Chars(s)
		_ = Words(s)
		_ = StatementType(Words(s))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// pointsInto reports whether tok's bytes lie inside s's.
func pointsInto(tok, s string) bool {
	if tok == "" || s == "" {
		return false
	}
	p, base := uintptr(unsafe.Pointer(unsafe.StringData(tok))), uintptr(unsafe.Pointer(unsafe.StringData(s)))
	return p >= base && p < base+uintptr(len(s))
}

// TestVocabularyHoldsNoStatementText checks every way of building a
// vocabulary copies its tokens: Words' tokens are substrings of the
// statement, and a vocabulary keeping one would keep the whole
// statement alive for as long as the model it encodes for.
func TestVocabularyHoldsNoStatementText(t *testing.T) {
	q := string([]byte("SELECT objid FROM PhotoObj WHERE name = 'abc'"))
	toks := Words(q)
	if !pointsInto(toks[1], q) {
		t.Fatalf("Words token %q is not a substring of the statement; the check below would prove nothing", toks[1])
	}
	added := NewVocabulary()
	for _, tok := range toks {
		added.Add(tok)
	}
	fromTokens, err := VocabularyFromTokens(append([]string{UnknownToken}, toks...))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*Vocabulary{
		"Add": added, "VocabularyFromTokens": fromTokens, "BuildVocabulary": BuildVocabulary([][]string{toks}, 0),
	} {
		if v.Size() != len(toks)+1 {
			t.Fatalf("%s: Size = %d, want %d", name, v.Size(), len(toks)+1)
		}
		for _, tok := range v.Tokens() {
			if pointsInto(tok, q) {
				t.Errorf("%s: token %q points into the statement", name, tok)
			}
		}
	}
}
