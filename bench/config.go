package main

import (
	"time"

	"repro/internal/core"
)

// The fixed configuration. Every number here is part of the
// benchmark's definition: a later change that edits one starts a new
// baseline. None is derived at run time, or a speed-up would change
// the load it is measured under.
const (
	// procs pins GOMAXPROCS, the closed-loop client count, and the
	// serve replica count. The sizing box has nproc = 2; pinning keeps
	// the numbers comparable on bigger boxes.
	procs = 2

	// trainSeed seeds the training data (synth run and split) and is
	// never the workload seed: -seed picks a different synth run, so
	// the program is measured on statements it never trained on.
	trainSeed     = 20200614
	trainSessions = 1400

	poolSessions = 3200 // synth sessions behind the statement pool
	poolMin      = 2000 // distinct statements required in the pool
	zipfPool     = 1000 // http-open-zipf draws over this many of the pool
	zipfS        = 1.1
	batchSize    = 16  // wire-batch-lstm request size
	shardSize    = 128 // train examples per op and model
	feedbackEach = 5   // online-mixed: every 5th op is a Feedback

	defaultSeconds = 20 // the measured window; BENCHMARK.json's run_seconds

	slices     = 10 // the measured window is cut into this many
	setupReps  = 3  // set-ups per run; setup_s is their median
	checkEvery = 64 // measured runs verify every 64th reply
	senders    = 16 // open-loop sender goroutines (and HTTP connections)

	onlineWindow = 256
	onlineMargin = 0.02

	// probeTime is how long one reading of the yardstick takes; every
	// slice and every set-up lies between two. calibRef is the reading
	// the timing metrics are scaled to: the yardstick's on the sizing
	// box in a quiet minute, in nanoseconds.
	probeTime = 200 * time.Millisecond
	calibRef  = 75_000.0
)

// Open-loop arrival rates of http-open-zipf, requests per second. One
// core (the other is the generator's) serves about 2 200 a second
// closed-loop on the sizing box when it is quiet and under half of that
// in its slow episodes, so r3 is what stays short of saturation then:
// at 1 200 a second a slow episode turned the last step into a growing
// queue (p50 8 ms, slo_ok_ratio 0.77 against 0.99 in the next run).
var openRates = [3]float64{300, 600, 900}

// stepSlices is how many of the window's ten slices each step of the
// open loop gets. gateStep indexes, among the schedule's steps (warm-up
// first), the one the end-to-end timing metrics of http-open-zipf are
// taken on: r2, with six slices, so that they span most of the window;
// with three equal steps one slow episode of the box covers the gating
// step whole.
var stepSlices = [3]int{2, 6, 2}

const gateStep = 2

// workloadSpec is one row of the workload table.
type workloadSpec struct {
	name  string
	why   string
	model string // registry name and model kind; "" for train
	task  core.Task
	http  bool // client speaks http:// instead of unix://
	open  bool // open loop with Poisson arrivals
	batch bool // ops are batches of batchSize statements
	wal   bool // service has an ingest WAL and an online learner
	// gated says whether BENCHMARK.json lists the workload, so that the
	// driver gates changes on it. http-open-zipf is measured, reported
	// and paired like the others but not listed: its latency did not
	// repeat within the widest bound the contract allows (README, "The
	// workload that does not gate").
	gated bool
	// clients is the closed-loop caller count.
	clients int
	// slo is the fixed latency limit behind slo_ok_ratio, set once at
	// about twice the sizing box's p50 (see README, Sizing).
	slo time.Duration
}

var workloads = []workloadSpec{
	{
		name:  "wire-single",
		why:   "closed loop, one wcnn statement per unix:// wire request, no repetition: overhead-bound, forward is about half the round trip, guards the 0-alloc path",
		model: "wcnn", task: core.CPUTimePrediction, clients: procs, gated: true,
		slo: 400 * time.Microsecond,
	},
	{
		name:  "wire-batch-lstm",
		why:   "closed loop, batches of 16 clstm statements over unix://: forward-bound, kernels and batched lanes show here and transport work must not",
		model: "clstm", task: core.ErrorClassification, clients: procs, batch: true, gated: true,
		slo: 60 * time.Millisecond,
	},
	{
		name:  "http-open-zipf",
		why:   "open loop, Poisson arrivals at three fixed rates, ccnn over http:// JSON, Zipf-repeated statements: the interactive user, where queueing, fusion and caching show",
		model: "ccnn", task: core.ErrorClassification, http: true, open: true,
		slo: 5 * time.Millisecond,
	},
	{
		name:  "online-mixed",
		why:   "closed loop, 4 predicts then 1 feedback, every op appended to the WAL while a learner fine-tunes on the same cores: writes beside reads",
		model: "ccnn", task: core.ErrorClassification, clients: procs, wal: true, gated: true,
		slo: 1500 * time.Microsecond,
	},
	{
		name:    "train",
		why:     "closed loop, one caller fitting ccnn then clstm on a 128-example shard with 2 workers: the researcher, no serving layer runs",
		clients: 1, gated: true,
		slo: 600 * time.Millisecond,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// trainConfig is the architecture the experiment harness reproduces
// the paper with, cut to one epoch. TinyConfig is not used: it
// truncates statements to 60 characters and makes the forward pass a
// 20µs afterthought.
func trainConfig(workers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Epochs = 1
	cfg.Workers = workers
	cfg.Seed = trainSeed
	return cfg
}

// metricDef names one metric of the contract.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the gating metrics in BENCHMARK.json's order; the
// self-test asserts the two lists are equal. The issue's table has
// nine end-to-end metrics; the four in ungated below are measured and
// printed for every workload like the others but cannot gate on the
// sizing box (README, "Four metrics that do not gate"), so the driver
// gets them with the per-layer metrics. The timing bounds are the
// widest the contract allows, for the reason given there.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_stmt", "us", "lower", 0.25},
	{"slo_ok_ratio", "ratio", "higher", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// ungated are the issue's other four end-to-end metrics.
var ungated = []metricDef{
	{Name: "latency_p90_us", Unit: "us", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "allocs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "error_ratio", Unit: "ratio", Better: "lower"},
}

// perLayer lists the layer metrics a traced run reports, by the repo's
// package names. They have no bound. A metric that does not apply to a
// workload (an online counter where no learner runs, a serving layer
// on train) reads 0 there.
var perLayer = []metricDef{
	ungated[0], ungated[1], ungated[2], ungated[3],

	{Name: "sqllex.encode_word_ns", Unit: "ns", Better: "lower"},
	{Name: "sqllex.encode_char_ns", Unit: "ns", Better: "lower"},
	{Name: "sqllex.encode_allocs", Unit: "count", Better: "lower"},

	{Name: "core.predict_wcnn_ns", Unit: "ns", Better: "lower"},
	{Name: "core.predict_ccnn_ns", Unit: "ns", Better: "lower"},
	{Name: "core.predict_clstm_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.forward_wcnn_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.forward_ccnn_ns", Unit: "ns", Better: "lower"},
	{Name: "nn.forward_clstm_ns", Unit: "ns", Better: "lower"},
	{Name: "core.batch16_ccnn_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "core.batch16_clstm_ns_per_stmt", Unit: "ns", Better: "lower"},

	{Name: "f64.gemm_m48n16k12_ns", Unit: "ns", Better: "lower"},
	{Name: "f64.gemv_256x64_ns", Unit: "ns", Better: "lower"},
	{Name: "f64.tanhv_ns_per_elt", Unit: "ns", Better: "lower"},
	{Name: "f64.expv_ns_per_elt", Unit: "ns", Better: "lower"},

	{Name: "core.train_ccnn_w1_ex_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.train_ccnn_w2_ex_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.train_clstm_w1_ex_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.train_clstm_w2_ex_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.train_scaling_w2", Unit: "ratio", Better: "higher"},
	{Name: "core.finetune_ccnn_ex_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "core.accuracy_ccnn", Unit: "ratio", Better: "higher"},
	{Name: "core.mse_wcnn", Unit: "count", Better: "lower"},

	{Name: "serve.self_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.self_c2_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.fused_c16_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.unfused_c16_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.fusion_gain", Unit: "ratio", Better: "higher"},
	{Name: "serve.eff_batch", Unit: "count", Better: "higher"},
	{Name: "serve.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "serve.canceled", Unit: "count", Better: "lower"},
	{Name: "serve.panics", Unit: "count", Better: "lower"},
	{Name: "serve.stats_call_us", Unit: "us", Better: "lower"},

	{Name: "service.self_ns", Unit: "ns", Better: "lower"},
	{Name: "service.batch16_self_ns", Unit: "ns", Better: "lower"},
	{Name: "service.ingest_tax_ns", Unit: "ns", Better: "lower"},
	{Name: "service.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "service.swap_ms", Unit: "ms", Better: "lower"},
	{Name: "service.register_ms", Unit: "ms", Better: "lower"},
	{Name: "service.warmboot_ms", Unit: "ms", Better: "lower"},

	{Name: "wire.codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.self_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.tcp_self_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch16_self_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.pipelined_c2_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wire.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "http.handler_ns", Unit: "ns", Better: "lower"},
	{Name: "http.self_ns", Unit: "ns", Better: "lower"},
	{Name: "http.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "client.self_ns", Unit: "ns", Better: "lower"},
	{Name: "client.cluster_route_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.order_ns", Unit: "ns", Better: "lower"},
	{Name: "client.latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.latency_p999_us", Unit: "us", Better: "lower"},
	{Name: "client.feedback_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},
	{Name: "client.short_circuited", Unit: "count", Better: "lower"},
	{Name: "client.open_p50_us_r1", Unit: "us", Better: "lower"},
	{Name: "client.open_p90_us_r1", Unit: "us", Better: "lower"},
	{Name: "client.open_p50_us_r3", Unit: "us", Better: "lower"},
	{Name: "client.open_p90_us_r3", Unit: "us", Better: "lower"},
	{Name: "client.backlog_end_r3", Unit: "count", Better: "lower"},
	{Name: "client.gen_late_p99_us", Unit: "us", Better: "lower"},

	{Name: "ingest.append_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.append_allocs", Unit: "count", Better: "lower"},
	{Name: "ingest.read_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "ingest.bytes_per_rec", Unit: "count", Better: "lower"},
	{Name: "ingest.appended", Unit: "count", Better: "higher"},
	{Name: "ingest.pruned_segments", Unit: "count", Better: "lower"},

	{Name: "online.windows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "online.candidates", Unit: "count", Better: "higher"},
	{Name: "online.swaps", Unit: "count", Better: "higher"},
	{Name: "online.rejected", Unit: "count", Better: "lower"},
	{Name: "online.rollbacks", Unit: "count", Better: "lower"},
	{Name: "online.lag_records", Unit: "count", Better: "lower"},
	{Name: "online.skipped_segments", Unit: "count", Better: "lower"},

	{Name: "synth.generate_s", Unit: "s", Better: "lower"},
	{Name: "core.train_setup_s", Unit: "s", Better: "lower"},
	{Name: "artifact.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "artifact.decode_ms", Unit: "ms", Better: "lower"},

	{Name: "host.calib_ns", Unit: "ns", Better: "lower"},
	{Name: "host.calib_drift", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.unexplained_us", Unit: "us", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
}

// unitOf looks a metric's unit up in the two lists.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
