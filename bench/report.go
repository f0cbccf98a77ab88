package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is one run of one workload.
type workloadReport struct {
	Name         string                 `json:"name"`
	Why          string                 `json:"why"`
	Seed         int64                  `json:"seed"`
	Run          int                    `json:"run"`
	Seconds      float64                `json:"seconds"`
	Traced       bool                   `json:"traced"`
	InputsSHA256 string                 `json:"inputs_sha256"`
	Correct      bool                   `json:"correct"`
	Checked      int                    `json:"checked"` // replies verified bit for bit
	Wrong        int                    `json:"wrong"`
	FirstWrong   string                 `json:"first_wrong,omitempty"`
	Metrics      map[string]metricValue `json:"metrics"`
	Layers       map[string]metricValue `json:"layers"`
	Slices       []sliceStats           `json:"slices"`
	Phases       []phaseCount           `json:"phases"`
}

// hostInfo says where a report was taken.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// fixedConfig records config.go in every report.
type fixedConfig struct {
	Procs         int                `json:"procs"`
	TrainSeed     int64              `json:"train_seed"`
	TrainSessions int                `json:"train_sessions"`
	Slices        int                `json:"slices"`
	OpenRates     [3]float64         `json:"open_rates_per_s"`
	SLOUs         map[string]float64 `json:"slo_us"`
	EndToEnd      []metricDef        `json:"end_to_end"`
}

// report is the -out document: one set of runs.
type report struct {
	Host      hostInfo          `json:"host"`
	Config    fixedConfig       `json:"config"`
	Workloads []*workloadReport `json:"workloads"`
	// Claim is always null: the harness measures, it claims no gain.
	Claim *string `json:"claim"`
}

func newReport() *report {
	commit := "unknown"
	// Outside a git checkout (the driver's) there is no commit to name,
	// and git must not go looking for one above the checkout.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	slo := map[string]float64{}
	for _, w := range workloads {
		slo[w.name] = float64(w.slo.Microseconds())
	}
	return &report{
		Host: hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit},
		Config: fixedConfig{
			Procs: procs, TrainSeed: trainSeed, TrainSessions: trainSessions, Slices: slices,
			OpenRates: openRates, SLOUs: slo, EndToEnd: endToEnd,
		},
	}
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable writes one workload's metrics as `workload metric value
// unit` rows: the end-to-end metrics in their fixed order, then the
// layer metrics by name.
func printTable(w io.Writer, rep *workloadReport) {
	for _, d := range append(append([]metricDef{}, endToEnd...), ungated...) {
		v := rep.Metrics[d.Name]
		fmt.Fprintf(w, "%-16s %-34s %14.4f %s\n", rep.Name, d.Name, v.Value, v.Unit)
	}
	for _, name := range sortedNames(rep.Layers) {
		v := rep.Layers[name]
		fmt.Fprintf(w, "%-16s %-34s %14.4f %s\n", rep.Name, name, v.Value, v.Unit)
	}
	for _, p := range rep.Phases {
		fmt.Fprintf(w, "%-16s phase %-10s attempted %d succeeded %d failed %d\n", rep.Name, p.Name, p.Attempted, p.Succeeded, p.Failed)
	}
	fmt.Fprintf(w, "%-16s checked %d replies bit for bit, %d wrong %s\n", rep.Name, rep.Checked, rep.Wrong, rep.FirstWrong)
}

// contractLine is the last line the driver reads: exactly the keys
// correct, attempted, failed and metrics; the end-to-end metrics
// untraced, the per-layer metrics traced.
func contractLine(rep *workloadReport) ([]byte, error) {
	metrics := map[string]metricValue{}
	if rep.Traced {
		for _, d := range perLayer {
			v, ok := rep.Layers[d.Name]
			if !ok {
				// The two ungated end-to-end metrics; a layer metric that
				// does not apply to this workload reads 0.
				v = rep.Metrics[d.Name]
			}
			metrics[d.Name] = metricValue{v.Value, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = rep.Metrics[d.Name]
		}
	}
	attempted, failed := 0, 0
	for _, p := range rep.Phases {
		if p.Name != "warmup" {
			attempted += p.Attempted
			failed += p.Failed
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, attempted, failed, metrics})
}

// sortedNames returns a map's keys in order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
