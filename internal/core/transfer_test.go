package core

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

	"repro/internal/synth"
	"repro/internal/workload"
)

func sqlshareSplits(t *testing.T) (source []workload.Item, targetTrain, targetTest []workload.Item) {
	t.Helper()
	g := synth.NewSDSS(synth.SDSSConfig{Sessions: 700, HitsPerSessionMax: 2, Seed: 31})
	source = g.Generate().Items
	sq := synth.NewSQLShare(synth.SQLShareConfig{Users: 10, QueriesPerUser: 25, Seed: 32})
	split := workload.UserSplit(sq.Generate().Items, 0.1, 0.2, rand.New(rand.NewSource(31)))
	return source, split.Train, split.Test
}

func TestFineTuneRejectsNonNeural(t *testing.T) {
	items := []workload.Item{{Statement: "SELECT 1 FROM Servers", CPUTime: 1}}
	m, err := Train("median", CPUTimePrediction, items, TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FineTune(m, items, TinyConfig()); err == nil {
		t.Fatal("median cannot be fine-tuned")
	}
}

func TestFineTuneImprovesOnTarget(t *testing.T) {
	source, targetTrain, targetTest := sqlshareSplits(t)
	cfg := TinyConfig()
	cfg.Epochs = 2
	m, err := Train("ccnn", CPUTimePrediction, source, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := EvaluateRegressor(m, CPUTimePrediction, targetTest).Loss
	if _, err := FineTune(m, targetTrain, cfg); err != nil {
		t.Fatal(err)
	}
	after := EvaluateRegressor(m, CPUTimePrediction, targetTest).Loss
	if math.IsNaN(after) {
		t.Fatal("NaN loss after fine-tuning")
	}
	// Fine-tuning on the target domain should not make things much
	// worse; it typically helps (the source and target label scales
	// differ substantially).
	if after > before*1.5+0.5 {
		t.Fatalf("fine-tuning degraded target loss: %v -> %v", before, after)
	}
}

func TestTransferExperiment(t *testing.T) {
	source, targetTrain, targetTest := sqlshareSplits(t)
	cfg := TinyConfig()
	res, err := TransferExperiment("ccnn", CPUTimePrediction, source, targetTrain, targetTest, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{res.SourceOnly, res.FineTuned, res.FromScratch} {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("bad transfer losses: %+v", res)
		}
	}
	// Fine-tuning must recover most of the domain gap: it should be no
	// worse than using the source model untouched.
	if res.FineTuned > res.SourceOnly+0.2 {
		t.Fatalf("fine-tuned (%v) should improve on source-only (%v)", res.FineTuned, res.SourceOnly)
	}
}

func TestTransferExperimentRejectsClassification(t *testing.T) {
	if _, err := TransferExperiment("ccnn", ErrorClassification, nil, nil, nil, TinyConfig()); err == nil {
		t.Fatal("classification transfer should be rejected")
	}
}

func TestMultiTaskTrainsAndPredicts(t *testing.T) {
	g := synth.NewSDSS(synth.SDSSConfig{Sessions: 600, HitsPerSessionMax: 2, Seed: 33})
	items := g.Generate().Items
	cfg := TinyConfig()
	cfg.Epochs = 2
	m, err := TrainMultiTask(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.V == 0 || m.P == 0 {
		t.Fatal("missing v/p")
	}
	pred := m.Predict("SELECT * FROM PhotoObj WHERE objid = 5")
	if len(pred.ErrorProbs) != 3 {
		t.Fatalf("error probs = %v", pred.ErrorProbs)
	}
	sum := 0.0
	for _, p := range pred.ErrorProbs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("probs sum = %v", sum)
	}
	if math.IsNaN(pred.AnswerSize) || math.IsNaN(pred.CPUTime) {
		t.Fatal("NaN regression outputs")
	}
}

func TestMultiTaskEmptyTrain(t *testing.T) {
	if _, err := TrainMultiTask(nil, TinyConfig()); err == nil {
		t.Fatal("empty training set should fail")
	}
}

func TestMultiTaskSharedEncoderLearns(t *testing.T) {
	// The multi-task model should track the single-task error
	// classifier reasonably: both see identical text.
	g := synth.NewSDSS(synth.SDSSConfig{Sessions: 900, HitsPerSessionMax: 2, Seed: 34})
	split := workload.RandomSplit(g.Generate().Items, 0.1, 0.1, rand.New(rand.NewSource(34)))
	cfg := TinyConfig()
	cfg.Epochs = 2
	mt, err := TrainMultiTask(split.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := ErrorClassification.Labels(split.Test)
	correct := 0
	for i, item := range split.Test {
		if mt.Predict(item.Statement).ErrorClass == truth[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(split.Test))
	if acc < 0.85 {
		t.Fatalf("multi-task error accuracy = %v, want >= 0.85", acc)
	}
}

func TestMultiTaskLogPredictConsistent(t *testing.T) {
	g := synth.NewSDSS(synth.SDSSConfig{Sessions: 400, HitsPerSessionMax: 2, Seed: 35})
	m, err := TrainMultiTask(g.Generate().Items, TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := "SELECT COUNT(*) FROM Galaxy WHERE r < 22"
	ansLog, cpuLog := m.PredictLog(q)
	pred := m.Predict(q)
	backAns := math.Log(pred.AnswerSize + 1 - m.AnsLogMin)
	backCPU := math.Log(pred.CPUTime + 1 - m.CPULogMin)
	if math.Abs(backAns-ansLog) > 1e-6 || math.Abs(backCPU-cpuLog) > 1e-6 {
		t.Fatal("raw and log predictions inconsistent")
	}
}

// multiTaskDigest is what one TrainMultiTask run is pinned to: the bits
// of every parameter in params() order, and of everything Predict and
// PredictLog return over 16 fixed statements.
type multiTaskDigest struct {
	Params      string `json:"params_sha256"`
	Predictions string `json:"predictions_sha256"`
}

// TestMultiTaskPinned is TestIdentityPinned for the Section 8 multi-task
// model: testdata/multitask.json is written at the commit before a
// change to the model or the trainer (-update) and must pass unchanged
// after it. Workers 1 pins the one-worker dropout stream (the training
// RNG), Workers 2 the per-example one.
func TestMultiTaskPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64: %s's compiler may fuse multiply-adds, which legitimately rounds differently", runtime.GOARCH)
	}
	items := synth.NewSDSS(synth.SDSSConfig{Sessions: 150, HitsPerSessionMax: 2, Seed: 36}).Generate().Items
	pool := workload.Statements(synth.NewSDSS(synth.SDSSConfig{Sessions: 40, HitsPerSessionMax: 2, Seed: 37}).Generate().Items)[:16]

	got := map[string]multiTaskDigest{}
	for _, workers := range []int{1, 2} {
		cfg := TinyConfig()
		cfg.Epochs = 2
		cfg.Workers = workers
		m, err := TrainMultiTask(items, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var word [8]byte
		hash := func(vals ...float64) {
			for _, v := range vals {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
		}
		for _, p := range m.params() {
			hash(p.W...)
		}
		d := multiTaskDigest{Params: hex.EncodeToString(h.Sum(nil))}
		h.Reset()
		for _, stmt := range pool {
			pred := m.Predict(stmt)
			hash(pred.ErrorProbs...)
			hash(float64(pred.ErrorClass), pred.AnswerSize, pred.CPUTime)
			hash(m.PredictLog(stmt))
		}
		d.Predictions = hex.EncodeToString(h.Sum(nil))
		got[fmt.Sprintf("workers%d", workers)] = d
	}

	path := filepath.Join("testdata", "multitask.json")
	if flag.Lookup("update").Value.String() == "true" { // identity_test.go's flag
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
	want := map[string]multiTaskDigest{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("multi-task model moved:\n got  %+v\n want %+v", got, want)
	}
}
