package sqllex

import (
	"slices"
	"testing"
)

// encoderCorpus exercises every tokenizer branch: identifiers, digits,
// hex ids, scientific notation, string literals with escaped quotes and
// digit runs, quoted/bracketed identifiers, one- and two-character
// operators, unicode, and pathological inputs.
var encoderCorpus = []string{
	"SELECT p.objid, p.ra FROM PhotoObj AS p WHERE p.ra BETWEEN 150 AND 152",
	"select top 10 * from SpecObj where z > 0.5e-3 and objid = 0x112d075f80360018",
	"SELECT name FROM users WHERE note = 'it''s 42 degrees' AND id <= 7",
	`SELECT "weird col", [bracketed name] FROM t WHERE a <> b OR c != d`,
	"/* comment */ SELECT a || b -- trailing",
	"   ",
	"",
	"π = 3.14159 — ünïcode ≤ test",
	"'unterminated literal with 123",
	"SELECT 1e5, 2E+10, 0X1f, 9.9.9",
	"a<=b>=c<>d!=e||f--g/*h*/i",
}

// splitSeeds are the inputs where a byte walk and a rune walk could
// part: invalid UTF-8 (each bad byte is one U+FFFD rune), multi-byte
// letters, digits and spaces, and constants cut off by the end of input.
var splitSeeds = []string{
	"[\xff]", "'\xff\xfe'", "é\xffé", "1e٣", "SELECT \xff FROM t", "\xc3", "a\xe2\x82",
	"\xed\xa0\x80", "x\x80y", "\"\xff", "0x\xff", "'12\xff3'",
	"SELECT naïve, 数据 FROM tâble", "١٢٣", "x١", "0x١f", "٣.5e+2", "'é1ü٣'",
	"\u2003SELECT\u00a0a\u3000FROM\u0085t\u2028", "€", "a€b", "\ufffd\xff",
	"1e+", "1e", "1E-", "0x", "1.2.3", "1e5e6", "1.e", "''", "'''", "'a''", "[", "\"",
}

// TestWordsCharsMatchRunes diffs the byte scanners against the rune
// scanners they replaced (lexref_test.go).
func TestWordsCharsMatchRunes(t *testing.T) {
	for _, q := range append(slices.Clone(encoderCorpus), splitSeeds...) {
		if got, want := Words(q), runeWords(q); !slices.Equal(got, want) {
			t.Errorf("Words(%q)\n got %q\nwant %q", q, got, want)
		}
		if got, want := Chars(q), runeChars(q); !slices.Equal(got, want) {
			t.Errorf("Chars(%q)\n got %q\nwant %q", q, got, want)
		}
	}
}

// TestEncoderMatchesTokenizeEncode checks the fused Encoder pipeline
// produces exactly the ids of the two-step tokenize+encode pipeline it
// replaces, for both granularities and several length caps.
func TestEncoderMatchesTokenizeEncode(t *testing.T) {
	// Build vocabularies from a subset so some tokens are OOV.
	var charSeqs, wordSeqs [][]string
	for _, q := range encoderCorpus[:6] {
		charSeqs = append(charSeqs, Chars(q))
		wordSeqs = append(wordSeqs, Words(q))
	}
	charVocab := BuildVocabulary(charSeqs, 0)
	wordVocab := BuildVocabulary(wordSeqs, 40)
	for _, maxLen := range []int{0, 5, 60} {
		charEnc := NewEncoder(charVocab, false, maxLen)
		wordEnc := NewEncoder(wordVocab, true, maxLen)
		for _, q := range encoderCorpus {
			wantChar := charVocab.Encode(Chars(q), maxLen)
			gotChar := charEnc.Encode(q)
			if !slices.Equal(wantChar, gotChar) {
				t.Fatalf("char maxLen=%d %q:\n got %v\nwant %v", maxLen, q, gotChar, wantChar)
			}
			wantWord := wordVocab.Encode(Words(q), maxLen)
			gotWord := wordEnc.Encode(q)
			if !slices.Equal(wantWord, gotWord) {
				t.Fatalf("word maxLen=%d %q:\n got %v\nwant %v", maxLen, q, gotWord, wantWord)
			}
		}
	}
}

// allocStatement holds every token shape that could cost an
// allocation: a quoted literal whose digits are normalized, a bracketed
// name and a non-ASCII letter.
const allocStatement = "SELECT [my col], größe FROM PhotoObj WHERE note = 'run 42' AND ra > 150"

// TestEncoderAllocFree checks the warm fused pipeline allocates
// nothing for either granularity.
func TestEncoderAllocFree(t *testing.T) {
	var charSeqs, wordSeqs [][]string
	for _, q := range append(slices.Clone(encoderCorpus), allocStatement) {
		charSeqs = append(charSeqs, Chars(q))
		wordSeqs = append(wordSeqs, Words(q))
	}
	for _, tc := range []struct {
		name string
		enc  *Encoder
	}{
		{"chars", NewEncoder(BuildVocabulary(charSeqs, 0), false, 80)},
		{"words", NewEncoder(BuildVocabulary(wordSeqs, 0), true, 40)},
	} {
		for _, q := range []string{encoderCorpus[1], allocStatement} {
			tc.enc.Encode(q) // warm the scratch
			if allocs := testing.AllocsPerRun(100, func() { tc.enc.Encode(q) }); allocs != 0 {
				t.Errorf("%s %q: Encode allocs/op = %v, want 0", tc.name, q, allocs)
			}
		}
	}
}

// TestWordsAllocs checks Words allocates its result slice and one
// string per literal whose digits it normalized, and no string per
// identifier or other token.
func TestWordsAllocs(t *testing.T) {
	for _, tc := range []struct {
		q    string
		want float64
	}{
		{allocStatement, 2},
		{"SELECT p.objid, größe FROM PhotoObj AS p WHERE p.name = 'abc'", 1},
	} {
		if allocs := testing.AllocsPerRun(100, func() { Words(tc.q) }); allocs > tc.want {
			t.Errorf("Words(%q) allocs/op = %v, want at most %v", tc.q, allocs, tc.want)
		}
	}
}

// TestCharsAreSubstrings checks character tokens are the substrings of
// the query their runes cover, so Chars allocates the result slice and
// no string per token.
func TestCharsAreSubstrings(t *testing.T) {
	q := string([]byte("ab ö"))
	toks := Chars(q)
	if !slices.Equal(toks, []string{"a", "b", "ö"}) {
		t.Fatalf("Chars = %q", toks)
	}
	for _, tok := range toks {
		if !pointsInto(tok, q) {
			t.Errorf("token %q is not a substring of the query", tok)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Chars(q) }); allocs > 1 {
		t.Errorf("Chars allocs/op = %v, want 1", allocs)
	}
}

// FuzzEncoderMatchesTokens is the differential behind the byte
// scanners and a contract the layers above lean on: equal text gives
// equal ids (a batched LSTM runs statements that share a prefix of ids
// as one row). Chars and Words must give the tokens of the rune
// scanners they replaced (lexref_test.go), and the fused Encoder.Encode
// the ids of those tokens through Vocabulary.Encode, at both
// granularities and both of core.DefaultConfig's length caps (40 words,
// 160 characters; each cap is tried at each granularity). An encoder
// reused across inputs — its literal scratch carried over from whatever
// it encoded last, the fuzzer's previous inputs included — must answer
// like a fresh one. The input is cut in two so that one execution
// alone already reuses the scratch: first half, second half, first
// half again.
func FuzzEncoderMatchesTokens(f *testing.F) {
	var charSeqs, wordSeqs [][]string
	for _, q := range append(slices.Clone(encoderCorpus[:6]), splitSeeds...) {
		charSeqs = append(charSeqs, runeChars(q))
		wordSeqs = append(wordSeqs, runeWords(q))
	}
	vocabs := [2]*Vocabulary{BuildVocabulary(charSeqs, 0), BuildVocabulary(wordSeqs, 60)}
	type leg struct {
		word   bool
		maxLen int
		reused *Encoder
	}
	var legs []leg
	for g, word := range []bool{false, true} {
		for _, maxLen := range []int{40, 160} {
			legs = append(legs, leg{word, maxLen, NewEncoder(vocabs[g], word, maxLen)})
		}
	}
	for _, q := range encoderCorpus {
		f.Add(q, len(q)/2)
	}
	for _, q := range splitSeeds {
		f.Add(q, len(q)/2)
	}
	f.Add("größe", 3) // a cut inside the ö
	f.Fuzz(func(t *testing.T, q string, cut int) {
		if cut < 0 || cut > len(q) {
			cut = len(q) / 2
		}
		parts := []string{q[:cut], q[cut:], q[:cut]} // a cut inside a rune leaves invalid UTF-8 on both sides: also an input
		for _, part := range parts {
			ref := [2][]string{runeChars(part), runeWords(part)}
			if got := Chars(part); !slices.Equal(got, ref[0]) {
				t.Fatalf("Chars(%q)\n got %q\nrune %q", part, got, ref[0])
			}
			if got := Words(part); !slices.Equal(got, ref[1]) {
				t.Fatalf("Words(%q)\n got %q\nrune %q", part, got, ref[1])
			}
			for _, lg := range legs {
				g := 0
				if lg.word {
					g = 1
				}
				want := vocabs[g].Encode(ref[g], lg.maxLen)
				if got := NewEncoder(vocabs[g], lg.word, lg.maxLen).Encode(part); !slices.Equal(got, want) {
					t.Fatalf("word=%v maxLen=%d %q: fresh encoder\n got %v\nwant %v", lg.word, lg.maxLen, part, got, want)
				}
				if got := lg.reused.Encode(part); !slices.Equal(got, want) {
					t.Fatalf("word=%v maxLen=%d %q: reused encoder\n got %v\nwant %v", lg.word, lg.maxLen, part, got, want)
				}
			}
		}
	})
}
