package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the pinned testdata/*.json goldens from this build's results")

// The benchmark harness's training set-up (bench/config.go, bench/rig.go),
// repeated here so the pinned digests describe the models the harness
// serves.
const (
	identitySeed     = 20200614
	identitySessions = 1400
	identityPoolSeed = 1_000_004 // a synth run the models never trained on
	identityPoolSess = 800
	identityPool     = 500 // statements predicted, the first of that run
	identityBatch    = 16
)

// identityDigest is what one model kind is pinned to: its artifact
// bytes and the Float64bits of everything it predicts over the pool,
// one statement at a time and in batches of 16.
type identityDigest struct {
	Artifact string `json:"artifact_sha256"`
	Scalar   string `json:"scalar_sha256"`
	Batch16  string `json:"batch16_sha256"`
}

// TestIdentityPinned is the bit-identity ledger a kernel change is
// judged against: train wcnn, ccnn and clstm exactly as the benchmark
// does and compare artifact hashes and prediction digests with
// testdata/identity.json, which is written at the commit *before* such
// a change (go test ./internal/core/ -run TestIdentityPinned -update)
// and must pass unchanged after it. The prediction digests are taken
// twice, on the trained model and through m.Replicate() — the frozen
// replica is the code a server runs — and both must equal the one set
// of goldens.
func TestIdentityPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64: %s's compiler may fuse multiply-adds, which legitimately rounds differently", runtime.GOARCH)
	}
	train := synth.NewSDSS(synth.SDSSConfig{Sessions: identitySessions, HitsPerSessionMax: 3, Seed: identitySeed}).Generate()
	split := workload.RandomSplit(train.Items, 0.1, 0.1, rand.New(rand.NewSource(identitySeed+7)))
	pool := workload.Statements(synth.NewSDSS(synth.SDSSConfig{Sessions: identityPoolSess, HitsPerSessionMax: 3, Seed: identityPoolSeed}).Generate().Items)
	if len(pool) < identityPool {
		t.Fatalf("pool has %d statements, need %d", len(pool), identityPool)
	}
	pool = pool[:identityPool]

	cfg := core.DefaultConfig()
	cfg.Epochs = 1
	cfg.Workers = 2
	cfg.Seed = identitySeed

	got, gotReplica := map[string]identityDigest{}, map[string]identityDigest{}
	for _, mt := range []struct {
		name string
		task core.Task
	}{
		{"wcnn", core.CPUTimePrediction},
		{"ccnn", core.ErrorClassification},
		{"clstm", core.ErrorClassification},
	} {
		m, err := core.Train(mt.name, mt.task, split.Train, cfg)
		if err != nil {
			t.Fatalf("train %s: %v", mt.name, err)
		}
		blob, err := artifact.Encode(m)
		if err != nil {
			t.Fatalf("encode %s: %v", mt.name, err)
		}
		sum := sha256.Sum256(blob)
		for _, leg := range []struct {
			digests map[string]identityDigest
			model   *core.Model
		}{{got, m}, {gotReplica, m.Replicate()}} {
			d := identityDigest{Artifact: hex.EncodeToString(sum[:])}
			d.Scalar, d.Batch16 = predictionDigests(leg.model, pool)
			if d.Scalar != d.Batch16 {
				t.Errorf("%s: scalar and batch-16 predictions differ", mt.name)
			}
			leg.digests[mt.name] = d
		}
	}

	path := filepath.Join("testdata", "identity.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
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
	want := map[string]identityDigest{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s moved:\n got  %+v\n want %+v", name, g, w)
		}
		if g := gotReplica[name]; g != w {
			t.Errorf("%s moved on a Replicate() copy:\n got  %+v\n want %+v", name, g, w)
		}
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d models, the test trains %d", path, len(want), len(got))
	}
}

// predictionDigests predicts the pool on m one statement at a time and
// in batches of 16 and hashes the bits of each.
func predictionDigests(m *core.Model, pool []string) (scalarSum, batchSum string) {
	var scalar, batch, row []float64
	for _, stmt := range pool {
		if m.Task.IsClassification() {
			row = m.ProbsInto(stmt, row)
			scalar = append(scalar, row...)
		} else {
			scalar = append(scalar, m.PredictLog(stmt))
		}
	}
	for lo := 0; lo < len(pool); lo += identityBatch {
		stmts := pool[lo:min(lo+identityBatch, len(pool))]
		for _, r := range m.ProbsBatchInto(stmts, nil) { // nil for a regression model
			batch = append(batch, r...)
		}
		batch = append(batch, m.PredictLogBatchInto(stmts, nil)...) // nil for a classifier
	}
	return bitsDigest(scalar), bitsDigest(batch)
}

// bitsDigest hashes the exact bit patterns of vals.
func bitsDigest(vals []float64) string {
	h := sha256.New()
	var word [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
		h.Write(word[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The shard FineTune is pinned on: the first fineTuneShard items of a
// third synth run, which neither the pinned models nor the pool saw.
const (
	fineTuneSeed     = 1_000_006
	fineTuneSessions = 400
	fineTuneShard    = 256
)

// fineTuneDigest is what one fine-tuned model is pinned to: its
// artifact bytes and the Float64bits of its scalar predictions over
// the identity pool.
type fineTuneDigest struct {
	Artifact string `json:"artifact_sha256"`
	Scalar   string `json:"scalar_sha256"`
}

// TestFineTunePinned is TestIdentityPinned for FineTune: Snapshots of
// the identity-pinned ccnn (error classes) and wcnn (cpu time, which
// trains on log labels under the source model's minimum) are
// fine-tuned on a shard of another synth run at one and two workers,
// and the artifact hashes and scalar prediction digests are compared
// with testdata/finetune.json, written at the commit before a change
// to the trainer (-update) and passed unchanged after it.
func TestFineTunePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64: %s's compiler may fuse multiply-adds, which legitimately rounds differently", runtime.GOARCH)
	}
	train := synth.NewSDSS(synth.SDSSConfig{Sessions: identitySessions, HitsPerSessionMax: 3, Seed: identitySeed}).Generate()
	split := workload.RandomSplit(train.Items, 0.1, 0.1, rand.New(rand.NewSource(identitySeed+7)))
	pool := workload.Statements(synth.NewSDSS(synth.SDSSConfig{Sessions: identityPoolSess, HitsPerSessionMax: 3, Seed: identityPoolSeed}).Generate().Items)[:identityPool]
	shard := synth.NewSDSS(synth.SDSSConfig{Sessions: fineTuneSessions, HitsPerSessionMax: 3, Seed: fineTuneSeed}).Generate().Items
	if len(shard) < fineTuneShard {
		t.Fatalf("shard run has %d items, need %d", len(shard), fineTuneShard)
	}
	shard = shard[:fineTuneShard]

	cfg := core.DefaultConfig()
	cfg.Epochs = 1
	cfg.Workers = 2
	cfg.Seed = identitySeed

	got := map[string]fineTuneDigest{}
	for _, mt := range []struct {
		name string
		task core.Task
	}{
		{"ccnn", core.ErrorClassification},
		{"wcnn", core.CPUTimePrediction},
	} {
		src, err := core.Train(mt.name, mt.task, split.Train, cfg)
		if err != nil {
			t.Fatalf("train %s: %v", mt.name, err)
		}
		for _, workers := range []int{1, 2} {
			ft := cfg
			ft.Workers = workers
			m, err := core.FineTune(src.Snapshot(), shard, ft)
			if err != nil {
				t.Fatalf("fine-tune %s at %d workers: %v", mt.name, workers, err)
			}
			blob, err := artifact.Encode(m)
			if err != nil {
				t.Fatalf("encode %s: %v", mt.name, err)
			}
			sum := sha256.Sum256(blob)
			d := fineTuneDigest{Artifact: hex.EncodeToString(sum[:])}
			d.Scalar, _ = predictionDigests(m, pool)
			got[fmt.Sprintf("%s/workers%d", mt.name, workers)] = d
		}
	}

	path := filepath.Join("testdata", "finetune.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	want := map[string]fineTuneDigest{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fine-tuned models moved:\n got  %+v\n want %+v", got, want)
	}
}

// tfidfDigest is what one TF-IDF model is pinned to: the Float64bits
// of everything it predicts over the identity pool, one statement at a
// time and in batches of 16. The TF-IDF models have no artifact.
type tfidfDigest struct {
	Scalar  string `json:"scalar_sha256"`
	Batch16 string `json:"batch16_sha256"`
}

// TestTFIDFPinned is TestIdentityPinned for the traditional two-stage
// models: ctfidf and wtfidf, trained on the identity split for a
// classification task with many classes, one with two and a regression
// task, predict the identity pool, and the digests are compared with
// testdata/tfidf.json, written at the commit before a change to the
// featurizer or the linear layer (-update) and passed unchanged after it.
func TestTFIDFPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64: %s's compiler may fuse multiply-adds, which legitimately rounds differently", runtime.GOARCH)
	}
	train := synth.NewSDSS(synth.SDSSConfig{Sessions: identitySessions, HitsPerSessionMax: 3, Seed: identitySeed}).Generate()
	split := workload.RandomSplit(train.Items, 0.1, 0.1, rand.New(rand.NewSource(identitySeed+7)))
	pool := workload.Statements(synth.NewSDSS(synth.SDSSConfig{Sessions: identityPoolSess, HitsPerSessionMax: 3, Seed: identityPoolSeed}).Generate().Items)[:identityPool]

	cfg := core.DefaultConfig()
	cfg.Seed = identitySeed

	got := map[string]tfidfDigest{}
	for _, name := range []string{"ctfidf", "wtfidf"} {
		for _, task := range []core.Task{core.ErrorClassification, core.SessionClassification, core.CPUTimePrediction} {
			m, err := core.Train(name, task, split.Train, cfg)
			if err != nil {
				t.Fatalf("train %s on %s: %v", name, task, err)
			}
			var d tfidfDigest
			d.Scalar, d.Batch16 = predictionDigests(m, pool)
			if d.Scalar != d.Batch16 {
				t.Errorf("%s on %s: scalar and batch-16 predictions differ", name, task)
			}
			got[fmt.Sprintf("%s/%s", name, task)] = d
		}
	}

	path := filepath.Join("testdata", "tfidf.json")
	if *update {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
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
	want := map[string]tfidfDigest{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TF-IDF models moved:\n got  %+v\n want %+v", got, want)
	}
}
