package sqllex

// Encoder fuses tokenization and vocabulary encoding into one
// allocation-free pipeline: it never materializes the intermediate
// []string token sequence, looking each token up as the substring of
// the statement it is (a normalized literal, from reusable byte
// scratch). It produces exactly the ids of
//
//	vocab.Encode(Words(query), maxLen)   // word granularity
//	vocab.Encode(Chars(query), maxLen)   // character granularity
//
// (each granularity shares its scanner with the tokenizer, so the two
// pipelines cannot drift apart). An Encoder owns its scratch and is
// therefore not safe for concurrent use; serving replicas each get
// their own.
type Encoder struct {
	vocab  *Vocabulary
	word   bool
	maxLen int

	ids []int
	lit []byte // normalized-literal scratch (word mode)
}

// NewEncoder builds an encoder for the vocabulary at the given
// granularity. maxLen > 0 truncates every encoded sequence to maxLen
// ids (the models' fixed input budget); the scan stops as soon as the
// cap is reached.
func NewEncoder(vocab *Vocabulary, word bool, maxLen int) *Encoder {
	return &Encoder{vocab: vocab, word: word, maxLen: maxLen}
}

// Encode tokenizes and encodes query. The returned slice is owned by
// the Encoder and valid only until the next Encode call. It allocates
// nothing once warm, unless query is not valid UTF-8 (word mode then
// decodes it once).
func (e *Encoder) Encode(query string) []int {
	e.ids = e.ids[:0]
	if e.word {
		sc := newWordScanner(query)
		for tok := sc.next(); tok != ""; tok = sc.next() {
			if lit := normalized(tok, e.lit); lit != nil {
				e.lit = lit
				// A map index by string(bytes) does not allocate.
				e.ids = append(e.ids, e.vocab.index[string(lit)])
			} else {
				e.ids = append(e.ids, e.vocab.ID(tok))
			}
			if e.full() {
				break
			}
		}
		return e.ids
	}
	for i := 0; i < len(query) && !e.full(); {
		var tok string
		if tok, i = nextChar(query, i); tok != "" {
			e.ids = append(e.ids, e.vocab.ID(tok))
		}
	}
	return e.ids
}

// full reports whether the sequence has reached the length cap.
func (e *Encoder) full() bool { return e.maxLen > 0 && len(e.ids) >= e.maxLen }
