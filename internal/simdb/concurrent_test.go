package simdb_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/simdb"
	"repro/internal/synth"
)

// TestExecuteConcurrent holds Engine.Execute to its concurrency
// contract: once the catalog is built, goroutines sharing one engine
// label exactly as one goroutine does. Each catalog is fresh, so the
// first lookups of its tables and columns happen under contention; run
// it with -race.
func TestExecuteConcurrent(t *testing.T) {
	const n = 500
	var sdss []string
	for _, e := range synth.NewSDSS(synth.SDSSConfig{Sessions: 400, HitsPerSessionMax: 3, Seed: 9}).GenerateLog() {
		sdss = append(sdss, e.Statement)
	}
	// The SQLShare generator builds its first user's catalog from a
	// stream seeded with the config's seed, so this is that schema.
	const seed = 4
	var share []string
	for _, it := range synth.NewSQLShare(synth.SQLShareConfig{Users: 1, QueriesPerUser: 1200, Seed: seed}).Generate().Items {
		share = append(share, it.Statement)
	}
	for _, c := range []struct {
		name    string
		stmts   []string
		catalog func() *simdb.Catalog
	}{
		{"sdss", sdss, simdb.NewSDSSCatalog},
		{"sqlshare", share, func() *simdb.Catalog {
			return simdb.NewSQLShareCatalog("u000", rand.New(rand.NewSource(seed)))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if len(c.stmts) < n {
				t.Fatalf("generated %d statements, want at least %d", len(c.stmts), n)
			}
			stmts := c.stmts[:n]
			serial := simdb.NewEngine(c.catalog())
			want := make([]simdb.Result, n)
			for i, s := range stmts {
				want[i] = serial.Execute(s)
			}
			shared := simdb.NewEngine(c.catalog())
			got := make([][]simdb.Result, 4)
			var wg sync.WaitGroup
			for w := range got {
				got[w] = make([]simdb.Result, n)
				wg.Add(1)
				go func(out []simdb.Result) {
					defer wg.Done()
					for i, s := range stmts {
						out[i] = shared.Execute(s)
					}
				}(got[w])
			}
			wg.Wait()
			for w, out := range got {
				for i := range out {
					if !sameResult(out[i], want[i]) {
						t.Fatalf("goroutine %d, %q: got %+v, serial engine %+v", w, stmts[i], out[i], want[i])
					}
				}
			}
		})
	}
}

func sameResult(a, b simdb.Result) bool {
	return a.Error == b.Error && a.AnswerSize == b.AnswerSize &&
		math.Float64bits(a.CPUTime) == math.Float64bits(b.CPUTime) &&
		math.Float64bits(a.Elapsed) == math.Float64bits(b.Elapsed)
}
