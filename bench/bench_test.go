package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestNamesMatchBenchmarkFile pins the harness's tables to
// BENCHMARK.json: same workloads, same metrics, same units, directions
// and bounds, and names the contract accepts.
func TestNamesMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var gated []workloadSpec
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(bf.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness gates on %d", len(bf.Workloads), len(gated))
	}
	for i, w := range gated {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json runs for %d s, the harness's default window is %d s", bf.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, list := range []struct {
		what      string
		got, want []metricDef
		most      int
	}{{"end_to_end", bf.EndToEnd, endToEnd, 16}, {"per_layer", bf.PerLayer, perLayer, 128}} {
		if len(list.got) != len(list.want) || len(list.want) > list.most {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d, the contract allows %d", list.what, len(list.got), len(list.want), list.most)
		}
		for i, d := range list.want {
			if list.got[i] != d {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", list.what, i, list.got[i], d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s: %q (%s) is not a name and unit the contract accepts, or is used twice", list.what, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if list.what == "end_to_end" && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
}

// TestSeededInputs: the same seed gives byte-identical inputs, another
// seed gives others, and no pool statement was trained on.
func TestSeededInputs(t *testing.T) {
	trained := newTrainData(200).statements()
	gen := func(seed int64) *inputs {
		in, err := newInputs(seed, trained, time.Second, 3*time.Second, 30*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, again, b := gen(7), gen(7), gen(8)
	if a.hash() != again.hash() {
		t.Errorf("seed 7 twice: %s then %s", a.hash(), again.hash())
	}
	if a.hash() == b.hash() {
		t.Errorf("seeds 7 and 8 both hash to %s", a.hash())
	}
	for _, it := range a.Pool {
		if trained[it.Statement] {
			t.Fatalf("pool statement %q is in the training data", it.Statement)
		}
	}
	if len(a.Pool) < poolMin || len(a.Steps) != 1+len(openRates) {
		t.Errorf("pool of %d statements, %d steps", len(a.Pool), len(a.Steps))
	}
}

// TestQuickRun runs all five workloads, untraced and traced, with
// one-second windows, and checks the report's shape: every metric of
// BENCHMARK.json present under exactly its name, counts that add up,
// answers all correct, and no claim.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	// Run from the repository root, as `go run ./bench` does: the
	// scratch directory bench/out is relative to it.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("bench")
	rep := newReport()
	for _, trace := range []bool{false, true} {
		for _, spec := range workloads {
			opt := runOptions{seed: 3, seconds: 1, trace: trace, quick: true, outDir: filepath.Join("bench", "out")}
			if trace {
				opt.seconds = 0.6 // keeps the whole test under 20 s
			}
			wr, err := runWorkload(spec, opt)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", spec.name, trace, err)
			}
			rep.Workloads = append(rep.Workloads, wr)
			if !wr.Correct || wr.Wrong != 0 || wr.Checked == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d checked replies wrong: %s", spec.name, trace, wr.Correct, wr.Wrong, wr.Checked, wr.FirstWrong)
			}
			for _, p := range wr.Phases {
				if p.Attempted != p.Succeeded+p.Failed || p.Attempted == 0 {
					t.Errorf("%s phase %s: attempted %d, succeeded %d, failed %d", spec.name, p.Name, p.Attempted, p.Succeeded, p.Failed)
				}
			}
			line, err := contractLine(wr)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(out.Metrics) != len(want) || out.Attempted < 1 || out.Failed != 0 || !out.Correct {
				t.Errorf("%s (trace %v): %d metrics (want %d), attempted %d, failed %d, correct %v", spec.name, trace, len(out.Metrics), len(want), out.Attempted, out.Failed, out.Correct)
			}
			for _, d := range want {
				got, ok := out.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s (trace %v): metric %s: got %+v, present %v", spec.name, trace, d.Name, got, ok)
				}
				// slo_ok_ratio is exempt: under the race detector or a
				// loaded box nothing may finish within the fixed limits.
				if !trace && got.Value <= 0 && d.Name != "slo_ok_ratio" {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", spec.name, d.Name, got.Value)
				}
			}
			if !trace {
				continue
			}
			// The traced pass reports a budget for every serving layer;
			// a self time is a difference of noisy timings and may read
			// negative, so only its presence is required.
			for _, name := range []string{"serve.self_ns", "service.self_ns", "wire.self_ns", "http.self_ns", "client.self_ns"} {
				if _, ok := wr.Layers[name]; !ok {
					t.Errorf("%s: layer metric %s is missing", spec.name, name)
				}
			}
			for _, name := range []string{"trace.spans", "trace.overhead_ratio", "core.accuracy_ccnn"} {
				if wr.Layers[name].Value <= 0 {
					t.Errorf("%s: layer metric %s = %g", spec.name, name, wr.Layers[name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(opt.outDir, spec.name+".trace.jsonl")); err != nil {
				t.Errorf("%s: no trace file: %v", spec.name, err)
			}
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if claim, ok := doc["claim"]; !ok || string(claim) != "null" {
		t.Errorf("report claim = %s, want null", claim)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %g, %g, want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 102}, []float64{100, 102, 103}, "unchanged"},
		{[]float64{100, 101, 102}, []float64{120, 121, 122}, "regressed"},
		{[]float64{100, 101, 102}, []float64{80, 81, 82}, "improved"},
		{[]float64{100, 101, 102}, []float64{94, 95, 96}, "unchanged"},
		{[]float64{80, 100, 130}, []float64{85, 104, 125}, "unresolved"},
	} {
		if got, _, _ := verdict(c.a, c.b, lower); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
