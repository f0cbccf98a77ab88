package sqllex

import (
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
			if !equalInts(wantChar, gotChar) {
				t.Fatalf("char maxLen=%d %q:\n got %v\nwant %v", maxLen, q, gotChar, wantChar)
			}
			wantWord := wordVocab.Encode(Words(q), maxLen)
			gotWord := wordEnc.Encode(q)
			if !equalInts(wantWord, gotWord) {
				t.Fatalf("word maxLen=%d %q:\n got %v\nwant %v", maxLen, q, gotWord, wantWord)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEncoderAllocFree checks the warm fused pipeline allocates
// nothing for either granularity.
func TestEncoderAllocFree(t *testing.T) {
	var charSeqs, wordSeqs [][]string
	for _, q := range encoderCorpus {
		charSeqs = append(charSeqs, Chars(q))
		wordSeqs = append(wordSeqs, Words(q))
	}
	q := encoderCorpus[1]
	for _, tc := range []struct {
		name string
		enc  *Encoder
	}{
		{"chars", NewEncoder(BuildVocabulary(charSeqs, 0), false, 80)},
		{"words", NewEncoder(BuildVocabulary(wordSeqs, 0), true, 40)},
	} {
		tc.enc.Encode(q) // warm the scratch
		if allocs := testing.AllocsPerRun(100, func() { tc.enc.Encode(q) }); allocs != 0 {
			t.Errorf("%s: Encode allocs/op = %v, want 0", tc.name, allocs)
		}
	}
}

// TestCharsInterned checks single-character tokens come from the
// interned ASCII table (no per-token string allocation) and keep the
// exact previous values.
func TestCharsInterned(t *testing.T) {
	toks := Chars("ab")
	if len(toks) != 2 || toks[0] != "a" || toks[1] != "b" {
		t.Fatalf("Chars = %v", toks)
	}
	// Interned: the same token value must be the identical string
	// header data (cheap identity check via map of backing pointers is
	// overkill — compare against the table directly).
	if &asciiTokens['a'] == nil || toks[0] != asciiTokens['a'] {
		t.Fatal("token not interned")
	}
}

// FuzzEncoderMatchesTokens is the differential behind a contract the
// layers above lean on: equal text gives equal ids (a batched LSTM runs
// statements that share a prefix of ids as one row). The fused
// Encoder.Encode must give the ids of Chars/Words + Vocabulary.Encode
// at both granularities and both of core.DefaultConfig's length caps
// (40 words, 160 characters; each cap is tried at each granularity),
// and an encoder reused across inputs — its rune, literal and key
// scratch carried over from whatever it encoded last, the fuzzer's
// previous inputs included — must answer like a fresh one. The input is
// cut in two so that one execution alone already reuses the scratch:
// first half, second half, first half again.
func FuzzEncoderMatchesTokens(f *testing.F) {
	var charSeqs, wordSeqs [][]string
	for _, q := range encoderCorpus[:6] {
		charSeqs = append(charSeqs, Chars(q))
		wordSeqs = append(wordSeqs, Words(q))
	}
	vocabs := [2]*Vocabulary{BuildVocabulary(charSeqs, 0), BuildVocabulary(wordSeqs, 40)}
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
	f.Fuzz(func(t *testing.T, q string, cut int) {
		if cut < 0 || cut > len(q) {
			cut = len(q) / 2
		}
		parts := []string{q[:cut], q[cut:], q[:cut]} // a cut inside a rune leaves invalid UTF-8 on both sides: also an input
		for _, lg := range legs {
			vocab := vocabs[0]
			tokens := Chars
			if lg.word {
				vocab, tokens = vocabs[1], Words
			}
			for _, part := range parts {
				want := vocab.Encode(tokens(part), lg.maxLen)
				if got := NewEncoder(vocab, lg.word, lg.maxLen).Encode(part); !equalInts(got, want) {
					t.Fatalf("word=%v maxLen=%d %q: fresh encoder\n got %v\nwant %v", lg.word, lg.maxLen, part, got, want)
				}
				if got := lg.reused.Encode(part); !equalInts(got, want) {
					t.Fatalf("word=%v maxLen=%d %q: reused encoder\n got %v\nwant %v", lg.word, lg.maxLen, part, got, want)
				}
			}
		}
	})
}
