// Command experiments regenerates the tables and figures of the
// paper's evaluation (Section 6) on the synthetic workloads.
//
// Usage:
//
//	experiments -all                     # everything, default scale
//	experiments -table 2                 # one table
//	experiments -table 2,3 -figure 13    # a selection
//	experiments -scale small -all        # quick run
//	experiments -all -out EXPERIMENTS.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// parseInts parses flag name's comma-separated list of integers,
// skipping blanks; a malformed entry is an error naming it.
func parseInts(name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad entry %q", name, part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	var (
		scale   = flag.String("scale", "default", "dataset scale: small or default")
		table   = flag.String("table", "", "comma-separated tables to regenerate (1-7)")
		figure  = flag.String("figure", "", "comma-separated figures to regenerate (3,4,6,7,8,12,13,14,20)")
		all     = flag.Bool("all", false, "regenerate every table and figure")
		out     = flag.String("out", "", "also write the report to this file")
		seed    = flag.Int64("seed", 1, "generator seed")
		epochs  = flag.Int("epochs", 0, "override training epochs")
		workers = flag.Int("workers", 0, "training goroutines per mini-batch (0: config default, -1: min(GOMAXPROCS, batch))")
	)
	flag.Parse()
	tables, terr := parseInts("table", *table)
	figures, ferr := parseInts("figure", *figure)
	err := errors.Join(terr, ferr)
	if err != nil || !*all && len(tables)+len(figures) == 0 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		flag.Usage()
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.SmallScale()
	case "default":
		sc = experiments.DefaultScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	sc.Seed = *seed
	if *epochs > 0 {
		sc.Cfg.Epochs = *epochs
	}
	if *workers != 0 {
		sc.Cfg.Workers = *workers
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "generating workloads (scale=%s, seed=%d)...\n", *scale, *seed)
	env := experiments.NewEnv(sc)
	fmt.Fprintf(os.Stderr, "workloads ready in %v: SDSS=%d items, SQLShare=%d items\n",
		time.Since(start).Round(time.Millisecond), len(env.SDSS.Items), len(env.SQLShare.Items))

	var report string
	if *all {
		report, err = experiments.RunAll(env)
	} else {
		var parts []string
		for i, n := range append(tables, figures...) {
			run := experiments.RunTable
			if i >= len(tables) {
				run = experiments.RunFigure
			}
			var text string
			if text, err = run(env, n); err != nil {
				break
			}
			parts = append(parts, text)
		}
		report = strings.Join(parts, "\n")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Print(report)
	fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "write:", err)
			os.Exit(1)
		}
	}
}
