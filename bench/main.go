// Command bench is the repository's one benchmark: five workloads,
// nine end-to-end metrics (five of them gating) and a per-layer budget, all from
// outside the program, through its public functions. See README.md in
// this directory for the tables; BENCHMARK.json at the repository root
// names this command.
//
//	go run ./bench                                # all five workloads, each in a fresh process
//	go run ./bench -workload wire-single -seed 7  # one workload, in this process
//	go run ./bench -trace 1                       # the traced pass: per-layer metrics
//	go run ./bench -runs 3 -out A.json            # a set of runs
//	go run ./bench -compare A.json B.json
//	go run ./bench -ab HEAD~1 -pairs 10
//	go run ./bench -dump-workload w.json -seed 7
//
// With -workload the last line of standard output is the JSON object
// the benchmark contract asks for.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "run this one workload in this process (default: all five, each in a fresh process)")
	seed := flag.Int64("seed", 1, "workload seed: statement pool, order, Zipf draws, arrival schedule")
	seconds := flag.Float64("seconds", defaultSeconds, "measured window in seconds, cut into 10 slices")
	trace := flag.Int("trace", 0, "1 = the traced pass (per-layer metrics) instead of the end-to-end window")
	quick := flag.Bool("quick", false, "self-test mode: small training set, one set-up")
	runs := flag.Int("runs", 1, "repeat the whole set this many times into one report")
	out := flag.String("out", "", "write the JSON report to this file")
	compare := flag.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
	ab := flag.String("ab", "", "pair this checkout against the given git ref, both built with this bench/")
	pairs := flag.Int("pairs", 10, "pairs of runs for -ab")
	dump := flag.String("dump-workload", "", "write the generated inputs for -seed to this file and exit")
	flag.Parse()

	runtime.GOMAXPROCS(procs)
	opt := runOptions{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, outDir: filepath.Join("bench", "out")}
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %g", opt.seconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *ab != "":
		return runAB(*ab, *pairs, *workload, opt)
	case *dump != "":
		in, err := newInputs(opt.seed, newTrainData(opt.sessions()).statements(), opt.warmup(), opt.window(), opt.probe())
		if err != nil {
			return err
		}
		fmt.Println(in.hash())
		return in.dump(*dump)
	}

	rep := newReport()
	for run := 0; run < *runs; run++ {
		if *workload != "" {
			spec, ok := findWorkload(*workload)
			if !ok {
				return fmt.Errorf("unknown workload %q", *workload)
			}
			wr, err := runWorkload(spec, opt)
			if err != nil {
				return err
			}
			wr.Run = run
			rep.Workloads = append(rep.Workloads, wr)
			continue
		}
		// Every workload gets a process of its own, so peak_rss_mb and
		// the heap each starts from are the workload's alone.
		for _, spec := range workloads {
			wr, err := runChild(spec.name, opt)
			if err != nil {
				return err
			}
			wr.Run = run
			rep.Workloads = append(rep.Workloads, wr)
		}
	}
	correct := true
	for _, wr := range rep.Workloads {
		printTable(os.Stdout, wr)
		correct = correct && wr.Correct
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			return err
		}
	}
	if *workload != "" {
		line, err := contractLine(rep.Workloads[len(rep.Workloads)-1])
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !correct {
		return fmt.Errorf("a workload failed its correctness check")
	}
	return nil
}

// runChild runs one workload in a fresh process of this same binary
// and reads its report back.
func runChild(name string, opt runOptions) (*workloadReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return runBinary(self, name, opt)
}

// runBinary runs one workload with the given bench binary, waits for
// it, and reads its report.
func runBinary(bin, name string, opt runOptions) (*workloadReport, error) {
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(opt.outDir, fmt.Sprintf("child-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-out", tmp,
	}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	rep, err := readReport(tmp)
	if err != nil {
		return nil, err
	}
	if len(rep.Workloads) != 1 {
		return nil, fmt.Errorf("workload %s: child reported %d workloads", name, len(rep.Workloads))
	}
	return rep.Workloads[0], nil
}
