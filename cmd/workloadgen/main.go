// Command workloadgen generates a synthetic SDSS-like or SQLShare-like
// query workload, optionally writes it as TSV, and prints the
// Section 4.3 workload analysis (structural distributions, label
// distributions, statement-type breakdown, repetition histogram).
//
// Usage:
//
//	workloadgen -kind sdss -sessions 6000
//	workloadgen -kind sqlshare -users 40 -out workload.tsv
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/synth"
	"repro/internal/workload"
)

func main() {
	var (
		kind     = flag.String("kind", "sdss", "workload kind: sdss or sqlshare")
		sessions = flag.Int("sessions", 6000, "SDSS sessions")
		users    = flag.Int("users", 40, "SQLShare users")
		perUser  = flag.Int("queries-per-user", 50, "mean queries per SQLShare user")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("out", "", "write items as TSV to this file")
	)
	flag.Parse()

	var w *workload.Workload
	switch *kind {
	case "sdss":
		w = synth.NewSDSS(synth.SDSSConfig{Sessions: *sessions, HitsPerSessionMax: 3, Seed: *seed}).Generate()
	case "sqlshare":
		w = synth.NewSQLShare(synth.SQLShareConfig{Users: *users, QueriesPerUser: *perUser, Seed: *seed}).Generate()
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}

	a := workload.Analyze(w)
	n := len(w.Items)
	fmt.Printf("%s workload: %d unique statements\n\n", *kind, n)

	fmt.Println("Statement types:")
	for _, typ := range byCount(a.StatementTypes) {
		count := a.StatementTypes[typ]
		fmt.Printf("    %-8s %7d (%.2f%%)\n", typ, count, 100*float64(count)/float64(n))
	}
	fmt.Println("\nError classes:")
	for _, c := range workload.ErrorClassNames {
		fmt.Printf("    %-11s %7d (%.2f%%)\n", c, a.ErrorClassCounts[c], 100*float64(a.ErrorClassCounts[c])/float64(n))
	}
	fmt.Println("\nSession classes:")
	for _, c := range workload.SessionClassNames {
		fmt.Printf("    %-11s %7d (%.2f%%)\n", c, a.SessionClassCounts[c], 100*float64(a.SessionClassCounts[c])/float64(n))
	}
	fmt.Println("\nStructural properties:")
	fmt.Printf("    %-28s %10s %10s %8s %10s %8s\n", "property", "mean", "std", "min", "max", "median")
	for j, name := range sqlparse.FeatureNames {
		s := a.FeatureSummaries[j]
		fmt.Printf("    %-28s %10.2f %10.2f %8.0f %10.0f %8.1f\n", name, s.Mean, s.Std, s.Min, s.Max, s.Median)
	}
	sAns, sCPU := a.AnswerSizeSummary, a.CPUTimeSummary
	fmt.Printf("\nAnswer size: mean=%.1f std=%.1f min=%.0f max=%.0f median=%.1f\n",
		sAns.Mean, sAns.Std, sAns.Min, sAns.Max, sAns.Median)
	fmt.Printf("CPU time:    mean=%.3f std=%.3f min=%.3f max=%.3f median=%.3f\n",
		sCPU.Mean, sCPU.Std, sCPU.Min, sCPU.Max, sCPU.Median)

	fmt.Println("\nRepetition histogram (Figure 20):")
	h := w.RepetitionHistogram()
	for _, bucket := range workload.RepetitionBuckets {
		fmt.Printf("    %-10s %7d\n", bucket, h[bucket])
	}

	if *out != "" {
		if err := writeTSV(*out, w); err != nil {
			fmt.Fprintln(os.Stderr, "write:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d items to %s\n", n, *out)
	}
}

// byCount returns counts' keys by count, largest first, then by key, so
// the listing is the same on every run.
func byCount(counts map[string]int) []string {
	keys := slices.Collect(maps.Keys(counts))
	slices.SortFunc(keys, func(a, b string) int {
		return cmp.Or(cmp.Compare(counts[b], counts[a]), strings.Compare(a, b))
	})
	return keys
}

// writeTSV writes the items to path. A failed write, flush or close is
// an error: the file would be truncated.
func writeTSV(path string, w *workload.Workload) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "statement\terror_class\tanswer_size\tcpu_time\telapsed\tsession_class\tuser\trepeats")
	for _, item := range w.Items {
		stmt := strings.ReplaceAll(strings.ReplaceAll(item.Statement, "\t", " "), "\n", " ")
		fmt.Fprintf(bw, "%s\t%s\t%.2f\t%.4f\t%.4f\t%s\t%s\t%d\n",
			stmt, item.ErrorClass, item.AnswerSize, item.CPUTime, item.Elapsed, item.Class, item.User, item.Repeats)
	}
	return bw.Flush()
}
