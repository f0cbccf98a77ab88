package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the benchmark contract's spread is defined by.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdict compares one metric's runs on two sides. a is the parent.
// Following the choosing-metrics guide: the metric moved when the
// median changes by more than the bound; where the run-to-run spread is
// wider than the bound it is unresolved, unless every run of one side
// beats every run of the other. A move within the bound is unchanged
// whichever way it points: two sets of the same code taken minutes
// apart differ by 10–15 % on the sizing box (baseline/compare.txt).
func verdict(a, b []float64, d metricDef) (string, float64, float64) {
	medA, medB := median(a), median(b)
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign * (medB - medA) / medA
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	spread := math.Max(q3a-q1a, q3b-q1b) / medA
	// Folded so that lower is better on both sides, every B run beats
	// every A run when B's worst is below A's best.
	fold := func(v []float64) (lo, hi float64) {
		lo, hi = sign*v[0], sign*v[0]
		for _, x := range v {
			lo, hi = min(lo, sign*x), max(hi, sign*x)
		}
		return lo, hi
	}
	loA, hiA := fold(a)
	loB, hiB := fold(b)
	allBetter, allWorse := hiB < loA, loB > hiA
	switch {
	case worse > d.Bound && (spread <= d.Bound || allWorse):
		return "regressed", worse, spread
	case -worse > d.Bound && (spread <= d.Bound || allBetter):
		return "improved", worse, spread
	case spread > d.Bound:
		return "unresolved", worse, spread
	}
	return "unchanged", worse, spread
}

// compareReports prints, per workload and end-to-end metric, both
// medians, the quartiles over runs, the bound and the verdict.
func compareReports(w io.Writer, a, b *report) {
	values := func(r *report, workload, metric string) []float64 {
		var v []float64
		for _, wr := range r.Workloads {
			if m, ok := wr.Metrics[metric]; ok && wr.Name == workload && !wr.Traced {
				v = append(v, m.Value)
			}
		}
		return v
	}
	fmt.Fprintf(w, "%-16s %-17s %12s %25s %12s %25s %6s %7s %7s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound", "worse", "spread", "verdict")
	counts := map[string]int{}
	for _, spec := range workloads {
		for _, d := range endToEnd {
			va, vb := values(a, spec.name, d.Name), values(b, spec.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse, spread := verdict(va, vb, d)
			counts[v]++
			q1a, q3a := quartiles(va)
			q1b, q3b := quartiles(vb)
			fmt.Fprintf(w, "%-16s %-17s %12.4f %25s %12.4f %25s %6.2f %+7.3f %7.3f  %s\n",
				spec.name, d.Name, median(va), fmt.Sprintf("%.4f..%.4f", q1a, q3a),
				median(vb), fmt.Sprintf("%.4f..%.4f", q1b, q3b), d.Bound, worse, spread, v)
		}
	}
	fmt.Fprintf(w, "%d improved, %d unchanged, %d regressed, %d unresolved (A: %d runs at %s, B: %d runs at %s)\n",
		counts["improved"], counts["unchanged"], counts["regressed"], counts["unresolved"],
		len(a.Workloads), a.Host.Commit, len(b.Workloads), b.Host.Commit)
}

func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	compareReports(w, a, b)
	return nil
}

// runAB pairs this checkout against a git ref. The ref's tree is
// unpacked into a scratch directory with this bench/ copied over it,
// so both sides are measured by identical benchmark code; both
// binaries are built once; each pair runs the two sides back to back,
// alternating which goes first; and a pair during which the box itself
// moved (host.calib_drift outside 0.95–1.05 on either side) is
// discarded and repeated, up to three times.
func runAB(ref string, pairs int, only string, opt runOptions) error {
	tmp, err := filepath.Abs(filepath.Join(opt.outDir, fmt.Sprintf("ab-%d", os.Getpid())))
	if err != nil {
		return err
	}
	src := filepath.Join(tmp, "src")
	if err := os.MkdirAll(src, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sh := func(dir, script string) error {
		cmd := exec.Command("sh", "-c", script)
		cmd.Dir, cmd.Stdout, cmd.Stderr = dir, os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", script, err)
		}
		return nil
	}
	binRef, binNew := filepath.Join(tmp, "bench-ref"), filepath.Join(tmp, "bench-new")
	for _, step := range []struct{ dir, script string }{
		{".", fmt.Sprintf("git archive --format=tar %q | tar -x -C %q", ref, src)},
		{".", fmt.Sprintf("rm -rf %q && mkdir %q && cp bench/*.go %q", src+"/bench", src+"/bench", src+"/bench")},
		{src, fmt.Sprintf("go build -o %q ./bench", binRef)},
		{".", fmt.Sprintf("go build -o %q ./bench", binNew)},
	} {
		if err := sh(step.dir, step.script); err != nil {
			return err
		}
	}

	names := []string{only}
	if only == "" {
		names = nil
		for _, spec := range workloads {
			names = append(names, spec.name)
		}
	}
	a, b := newReport(), newReport()
	a.Host.Commit = ref
	steady := func(wr *workloadReport) bool {
		return math.Abs(wr.Layers["host.calib_drift"].Value-1) <= 0.05
	}
	for pair := 0; pair < pairs; pair++ {
		popt := opt
		popt.seed = opt.seed + int64(pair)
		for _, name := range names {
			for try := 1; ; try++ {
				bins := [2]string{binRef, binNew}
				if pair%2 == 1 {
					bins[0], bins[1] = bins[1], bins[0]
				}
				var got [2]*workloadReport
				for i, bin := range bins {
					if got[i], err = runBinary(bin, name, popt); err != nil {
						return err
					}
					got[i].Run = pair
				}
				if pair%2 == 1 {
					got[0], got[1] = got[1], got[0]
				}
				if steady(got[0]) && steady(got[1]) || try == 3 {
					a.Workloads = append(a.Workloads, got[0])
					b.Workloads = append(b.Workloads, got[1])
					break
				}
				fmt.Fprintf(os.Stderr, "pair %d %s: the box drifted under the run, repeating\n", pair, name)
			}
		}
	}
	compareReports(os.Stdout, a, b)
	return nil
}
