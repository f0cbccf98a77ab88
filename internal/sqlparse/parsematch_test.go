package sqlparse_test

import (
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/synth"
)

// TestParseMatchesReference holds Parse to the parser it replaced, kept
// in parseref_test.go, over the parser tests' inputs and the statements
// of both workload generators at two seeds each: the SDSS raw log, junk
// corruptions included, and the SQLShare workload.
func TestParseMatchesReference(t *testing.T) {
	inputs := sqlparse.TestLiterals(t)
	for _, seed := range []int64{1, 2} {
		for _, e := range synth.NewSDSS(synth.SDSSConfig{Sessions: 1400, HitsPerSessionMax: 3, Seed: seed}).GenerateLog() {
			inputs = append(inputs, e.Statement)
		}
		for _, it := range synth.NewSQLShare(synth.SQLShareConfig{Users: 10, QueriesPerUser: 20, Seed: seed}).Generate().Items {
			inputs = append(inputs, it.Statement)
		}
	}
	for _, in := range inputs {
		if d := sqlparse.DiffReference(in); d != "" {
			t.Error(d)
		}
	}
	t.Logf("%d inputs", len(inputs))
}
