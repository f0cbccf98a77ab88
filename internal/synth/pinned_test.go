package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/simdb"
	"repro/internal/sqlparse"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/generators.json from this build's output")

// TestGeneratorsPinned is the bit-identity ledger of the workload
// generators: SHA-256 digests over every statement, session id and
// label of an SDSS raw log and extracted workload (1 400 sessions, the
// benchmark's seed and another) and of a small SQLShare workload, and
// over each workload's syntactic features and `opt` cost estimates,
// compared with testdata/generators.json. The file is written at the
// commit *before* a change to a generator, the simulated engine or
// their random streams (go test ./internal/synth/ -run
// TestGeneratorsPinned -update) and must pass unchanged after it. The
// generators label on GOMAXPROCS goroutines, so the digests are taken
// at GOMAXPROCS 1, 2 and 4 and must all equal the file.
func TestGeneratorsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64: %s's compiler may fuse multiply-adds, which legitimately rounds differently", runtime.GOARCH)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	path := filepath.Join("testdata", "generators.json")
	if *update {
		runtime.GOMAXPROCS(1)
		blob, err := json.MarshalIndent(generatorDigests(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it at the parent commit with -update)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got := generatorDigests()
		for name, w := range want {
			if g := got[name]; g != w {
				t.Errorf("GOMAXPROCS %d: %s moved:\n got  %s\n want %s", procs, name, g, w)
			}
		}
		if len(want) != len(got) {
			t.Errorf("%s pins %d runs, the test generates %d", path, len(want), len(got))
		}
	}
}

// generatorDigests generates the pinned runs and digests them by name.
func generatorDigests() map[string]string {
	got := map[string]string{}
	for _, run := range []struct {
		name string
		seed int64
	}{{"sdss-20200614", 20200614}, {"sdss-7", 7}} {
		cfg := SDSSConfig{Sessions: 1400, HitsPerSessionMax: 3, Seed: run.seed}
		got[run.name+"/log"] = logDigest(NewSDSS(cfg).GenerateLog())
		g := NewSDSS(cfg)
		items := g.Generate().Items
		got[run.name+"/workload"] = itemsDigest(items)
		got[run.name+"/features"] = featuresDigest(items)
		got[run.name+"/opt"] = optDigest(items, func(string) *simdb.Catalog { return g.Catalog() })
	}
	sq := NewSQLShare(SQLShareConfig{Users: 8, QueriesPerUser: 30, Seed: 3})
	items := sq.Generate().Items
	got["sqlshare-3/workload"] = itemsDigest(items)
	got["sqlshare-3/features"] = featuresDigest(items)
	got["sqlshare-3/opt"] = optDigest(items, func(user string) *simdb.Catalog { return sq.Catalogs()[user] })
	return got
}

// featuresDigest hashes every item's ten syntactic properties and
// statement type (the inputs of Figures 3-8).
func featuresDigest(items []workload.Item) string {
	d := digester{sha256.New()}
	for _, it := range items {
		f := sqlparse.ExtractFeatures(it.Statement)
		for _, v := range f.Vector() {
			d.float(v)
		}
		d.str(f.StatementType)
	}
	return d.sum()
}

// optDigest hashes the `opt` baseline's cost estimate of every item
// (Table 5), each under the catalog its database has.
func optDigest(items []workload.Item, catalog func(user string) *simdb.Catalog) string {
	d := digester{sha256.New()}
	for _, it := range items {
		opt := simdb.Optimizer{Catalog: catalog(it.User)}
		d.float(opt.EstimateCost(it.Statement))
	}
	return d.sum()
}

// logDigest hashes every field of every raw log entry.
func logDigest(log []workload.RawEntry) string {
	d := digester{sha256.New()}
	for _, e := range log {
		d.str(e.Statement)
		d.int(int64(e.SessionID))
		d.int(int64(e.Class))
		d.str(e.User)
		d.result(e.Result)
	}
	return d.sum()
}

// itemsDigest hashes every field of every extracted item.
func itemsDigest(items []workload.Item) string {
	d := digester{sha256.New()}
	for _, it := range items {
		d.str(it.Statement)
		d.int(int64(it.ErrorClass))
		d.float(it.AnswerSize)
		d.float(it.CPUTime)
		d.float(it.Elapsed)
		d.int(int64(it.Class))
		d.str(it.User)
		d.int(int64(it.Repeats))
	}
	return d.sum()
}

// digester writes fixed-width integers, float bit patterns and
// length-prefixed strings into a hash, so no two field sequences
// collide by concatenation.
type digester struct{ h hash.Hash }

func (d digester) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digester) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d digester) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d digester) result(r simdb.Result) {
	d.int(int64(r.Error))
	d.int(r.AnswerSize)
	d.float(r.CPUTime)
	d.float(r.Elapsed)
}

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
