package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/ingest"
)

// runOptions are the knobs of one run; everything else is fixed in
// config.go.
type runOptions struct {
	seed    int64
	seconds float64 // measured window
	trace   bool
	// quick is the self-test's mode: 200 training sessions and a single
	// set-up, so all five workloads fit in a unit test.
	quick  bool
	outDir string
}

func (o runOptions) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// warmup is the discarded lead-in: 3s ahead of the issue's 20s window,
// in proportion for shorter ones.
func (o runOptions) warmup() time.Duration { return o.window() * 3 / 20 }

// probe is how long one reading of the yardstick takes: probeTime, or
// an eighth of a slice when the self-test's windows are shorter.
func (o runOptions) probe() time.Duration { return min(probeTime, o.window()/slices/8) }

func (o runOptions) sessions() int {
	if o.quick {
		return 200
	}
	return trainSessions
}

// phaseCount is the fate of the operations of one phase of a run.
type phaseCount struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
}

// measured is the outcome of one untraced window of a workload.
type measured struct {
	slices []sliceStats
	phases []phaseCount
	layers map[string]float64 // the per-workload counter metrics
	// sent and withinSLO feed slo_ok_ratio: every operation of the
	// window (open loop: of all three steps), and those that finished
	// correctly within the limit.
	sent, withinSLO int
	checked, wrong  int
	firstWrong      string
}

func (m *measured) count(name string, ok, failed int) {
	m.phases = append(m.phases, phaseCount{name, ok + failed, ok, failed})
}

// measure runs one workload's warm-up and measured window untraced.
func measure(spec workloadSpec, r *rig, in *inputs, opt runOptions) (*measured, error) {
	m := &measured{layers: map[string]float64{}}
	var cuts []cut
	var err error
	switch {
	case spec.model == "":
		cuts, err = m.train(spec, in, opt)
	case spec.open:
		cuts, err = m.open(spec, r, in, opt)
	default:
		cuts, err = m.closed(spec, r, in, opt)
	}
	if err != nil {
		return nil, err
	}
	m.layers["host.calib_ns"] = cuts[0].before
	m.layers["host.calib_drift"] = cuts[len(cuts)-1].after / cuts[0].before
	if r != nil && spec.model != "" {
		if err := m.serverCounters(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// closed drives the three closed-loop serving workloads.
func (m *measured) closed(spec workloadSpec, r *rig, in *inputs, opt runOptions) ([]cut, error) {
	c, err := client.New(r.unixURL, client.Options{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	// Every checkEvery-th reply is kept for the checker: room for
	// 25 000 operations a second and client, as in closedLoop.
	replies := int((opt.warmup()+opt.window()).Seconds()*25_000)/checkEvery + 64
	if spec.batch {
		replies /= 4 // batches of 16 rows, but one takes ~20 ms
	}
	logs := make([]*checkLog, spec.clients)
	feedback := make([][]int64, spec.clients) // Feedback latencies, per client
	samples, cuts := closedLoop(spec.clients, opt.warmup(), opt.window(), opt.probe(), func(cl int) opFunc {
		log := newCheckLog(replies, spec.task.NumClasses())
		logs[cl] = log
		feedback[cl] = make([]int64, 0, replies*checkEvery/feedbackEach)
		var probs []float64
		switch {
		case spec.batch:
			return func(n int) (int, bool) {
				b := (n*spec.clients + cl) % len(in.Batches)
				prs, err := c.PredictBatch(ctx, r.name, in.batch(b))
				if err != nil || len(prs) != batchSize {
					return 0, false
				}
				if n%checkEvery == 0 {
					for k := range prs {
						log.add(int(in.Batches[b][k]), &prs[k])
					}
				}
				return batchSize, true
			}
		default:
			return func(n int) (int, bool) {
				i := (n*spec.clients + cl) % len(in.Pool)
				if spec.wal && n%feedbackEach == feedbackEach-1 {
					t0 := time.Now()
					err := c.Feedback(ctx, r.name, in.Pool[i].Statement, int(in.Pool[i].ErrorClass), 0)
					feedback[cl] = append(feedback[cl], int64(time.Since(t0)))
					return 1, err == nil
				}
				pr, out, err := c.PredictInto(ctx, r.name, in.Pool[i].Statement, probs)
				probs = out
				if err == nil && n%checkEvery == 0 {
					log.add(i, &pr)
				}
				return 1, err == nil
			}
		}
	})

	check := newChecker(in, r.reference)
	wrong := 0
	for _, log := range logs {
		wrong += check.verifyLog(log)
	}
	m.checked, m.wrong, m.firstWrong = check.checked, check.wrong, check.firstWrong
	var writes []int64
	for _, w := range feedback {
		writes = append(writes, w...)
	}
	lats := m.tally(spec, samples, cuts, wrong)
	m.clientTails(lats, writes)
	m.clientCounters(c, len(samples)-len(writes))
	return cuts, nil
}

// tally cuts a closed loop's samples into slices, files them under
// the warm-up or the measured phase by where they ended, charges wrong
// answers to the measured phase, and returns the latencies of the
// measured operations.
func (m *measured) tally(spec workloadSpec, samples []sample, cuts []cut, wrong int) []int64 {
	m.slices = cutSlices(samples, cuts, false, spec.slo)
	opened := cuts[0].from.at
	var warmOK, warmFail, ok, fail int
	var lats []int64
	for _, s := range samples {
		switch {
		case s.end <= opened && s.ok:
			warmOK++
		case s.end <= opened:
			warmFail++
		case !s.ok:
			fail++
		default:
			ok++
			lats = append(lats, s.end-s.start)
		}
	}
	m.count("warmup", warmOK, warmFail)
	m.count("measured", ok-wrong, fail+wrong)
	m.sent = ok + fail
	for _, sl := range m.slices {
		m.withinSLO += sl.WithinSLO
	}
	m.withinSLO -= wrong
	return lats
}

// clientTails reports the percentiles that do not gate.
func (m *measured) clientTails(lats, writes []int64) {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	sort.Slice(writes, func(i, j int) bool { return writes[i] < writes[j] })
	m.layers["client.latency_p99_us"] = percentile(lats, 0.99) / 1e3
	m.layers["client.latency_p999_us"] = percentile(lats, 0.999) / 1e3
	m.layers["client.feedback_p50_us"] = percentile(writes, 0.50) / 1e3
}

// clientCounters reads the client's breakers. The client counts
// attempts per endpoint, not retries, so retries are the predict
// attempts beyond one per predict operation.
func (m *measured) clientCounters(c *client.Client, predicts int) {
	var attempts, shorted uint64
	for _, b := range c.Breakers() {
		shorted += b.ShortCircuited
		if b.Endpoint == "/v1/predict" {
			attempts += b.Successes + b.Failures
		}
	}
	m.layers["client.retries"] = float64(attempts) - float64(predicts)
	m.layers["client.short_circuited"] = float64(shorted)
}

// open drives http-open-zipf.
func (m *measured) open(spec workloadSpec, r *rig, in *inputs, opt runOptions) ([]cut, error) {
	c, err := client.New(r.httpURL, client.Options{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	ctx := context.Background()
	logs := make([]*checkLog, senders)
	for s := range logs {
		logs[s] = newCheckLog(len(in.Arrivals)/checkEvery+1, spec.task.NumClasses())
	}
	gate := in.Steps[gateStep]
	res := openLoop(in, opt.probe(), func(s, i int) bool {
		stmt := int(in.Arrivals[i].Stmt)
		pr, err := c.Predict(ctx, r.name, in.Pool[stmt].Statement)
		if err == nil && i%checkEvery == 0 {
			logs[s].add(stmt, &pr)
		}
		return err == nil
	})
	if len(res.cuts) != slices {
		return nil, fmt.Errorf("%s: the schedule closed %d slices, want %d", spec.name, len(res.cuts), slices)
	}
	// The timing metrics are taken over the gating step's slices; the
	// other steps' slices count towards slo_ok_ratio.
	all := cutSlices(res.samples, res.cuts, true, spec.slo)
	m.slices = all[gate.FirstSlice:gate.EndSlice]
	check := newChecker(in, r.reference)
	wrong := 0
	for _, log := range logs {
		wrong += check.verifyLog(log)
	}
	m.checked, m.wrong, m.firstWrong = check.checked, check.wrong, check.firstWrong

	var lats []int64
	for si, st := range in.Steps {
		ok, fail, within := 0, 0, 0
		var stepLats []int64
		for _, s := range res.samples[st.First:st.End] {
			if !s.ok {
				fail++
				continue
			}
			ok++
			stepLats = append(stepLats, s.end-s.start)
		}
		for _, sl := range all[st.FirstSlice:st.EndSlice] {
			within += sl.WithinSLO
		}
		if si == 0 {
			m.count(st.Name, ok, fail)
			continue
		}
		// Which step a wrong answer came from is not recorded; all are
		// charged to the gating step.
		if st.Name == gate.Name {
			ok, fail, within = ok-wrong, fail+wrong, within-wrong
			lats = stepLats
		}
		m.count(st.Name, ok, fail)
		m.sent += ok + fail
		m.withinSLO += within
		sort.Slice(stepLats, func(i, j int) bool { return stepLats[i] < stepLats[j] })
		if st.Name != gate.Name {
			m.layers["client.open_p50_us_"+st.Name] = percentile(stepLats, 0.50) / 1e3
			m.layers["client.open_p90_us_"+st.Name] = percentile(stepLats, 0.90) / 1e3
		}
	}
	// The backlog at the end of the last step: arrivals due by then
	// and still unanswered. It stays near rate × latency when the
	// server keeps up and grows with the step's length when it does not.
	last := in.Steps[len(in.Steps)-1]
	backlog := 0
	for _, s := range res.samples[last.First:last.End] {
		if s.end > last.EndNs {
			backlog++
		}
	}
	m.layers["client.backlog_end_r3"] = float64(backlog)
	late := append([]int64(nil), res.lateNs[in.Steps[1].First:]...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	m.layers["client.gen_late_p99_us"] = percentile(late, 0.99) / 1e3
	m.clientTails(lats, nil)
	m.clientCounters(c, len(in.Arrivals))
	return res.cuts, nil
}

// train drives the train workload: one caller, each operation fitting
// ccnn and then clstm on the same shard. Training is deterministic for
// a fixed worker count, so every operation must reproduce the first
// one's models; one probe statement per model checks that bit for bit.
func (m *measured) train(spec workloadSpec, in *inputs, opt runOptions) ([]cut, error) {
	shard := in.shard()
	probe := in.Pool[shardSize].Statement
	var want [2][]float64
	var firstErr error
	names := [2]string{"ccnn", "clstm"}
	samples, cuts := closedLoop(1, opt.warmup(), opt.window(), opt.probe(), func(int) opFunc {
		return func(n int) (int, bool) {
			for k, name := range names {
				model, err := core.Train(name, core.ErrorClassification, shard, trainConfig(procs))
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return 0, false
				}
				got := model.Probs(probe)
				if n == 0 {
					want[k] = got
				}
				m.checked++
				if !sameBits(got, want[k]) {
					m.wrong++
					if m.firstWrong == "" {
						m.firstWrong = fmt.Sprintf("op %d: %s trained on the same shard predicts differently", n, name)
					}
					return 0, false
				}
			}
			return len(names) * shardSize, true
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	m.clientTails(m.tally(spec, samples, cuts, 0), nil)
	return cuts, nil
}

// serverCounters reads the program's own Stats after a window.
func (m *measured) serverCounters(r *rig) error {
	st, err := r.svc.StatsSnapshot(r.name)
	if err != nil {
		return err
	}
	m.layers["serve.eff_batch"] = st.Stats.EffectiveBatch
	m.layers["serve.lat_p50_us"] = float64(st.Stats.P50.Nanoseconds()) / 1e3
	m.layers["serve.lat_p99_us"] = float64(st.Stats.P99.Nanoseconds()) / 1e3
	m.layers["serve.rejected"] = float64(st.Stats.Rejected)
	m.layers["serve.canceled"] = float64(st.Stats.Canceled)
	m.layers["serve.panics"] = float64(st.Stats.Panics)
	if r.wal == nil {
		return nil
	}
	ws := r.wal.Stats()
	m.layers["ingest.appended"] = float64(ws.Appended)
	m.layers["ingest.pruned_segments"] = float64(ws.Pruned)
	if o := st.Online; o != nil {
		seconds := 0.0
		for _, sl := range m.slices {
			seconds += sl.Seconds
		}
		// Windows are counted from deploy, the seconds only over the
		// measured window: the warm-up's windows make this read a
		// little high, the same way on every run.
		m.layers["online.windows_per_s"] = float64(o.Windows) / seconds
		m.layers["online.candidates"] = float64(o.Candidates)
		m.layers["online.swaps"] = float64(o.Swaps)
		m.layers["online.rejected"] = float64(o.Rejected)
		m.layers["online.rollbacks"] = float64(o.Rollbacks)
		m.layers["online.lag_records"] = float64(o.Observed) - float64(o.Consumed)
	}
	// The learner's durable position: segments already pruned ahead of
	// it are records it will skip.
	var learner struct {
		Pos ingest.Pos `json:"pos"`
	}
	if data, err := r.store.Get("online/" + r.name); err == nil {
		if err := json.Unmarshal(data, &learner); err != nil {
			return fmt.Errorf("learner state: %w", err)
		}
	}
	segs, err := ingest.Segments(r.wal.Dir())
	if err != nil {
		return err
	}
	if len(segs) > 0 && learner.Pos.Seg > 0 && segs[0] > learner.Pos.Seg {
		m.layers["online.skipped_segments"] = float64(segs[0] - learner.Pos.Seg)
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// overSlices is the median over the window's slices of one statistic.
func (m *measured) overSlices(f func(sliceStats) float64) float64 {
	v := make([]float64, len(m.slices))
	for i, sl := range m.slices {
		v[i] = f(sl)
	}
	return median(v)
}

// endToEndMetrics folds a window into the nine end-to-end metrics.
// Every timing metric is the median over slices of the slice's value
// at the reference box's speed: a time is multiplied, and a rate
// divided, by calibRef over the yardstick's reading around that slice
// (README, "The yardstick"). Counts and ratios are as measured.
func endToEndMetrics(spec workloadSpec, m *measured, setupS, rssMiB float64) map[string]float64 {
	speed := func(s sliceStats) float64 { return calibRef / s.CalibNs }
	throughput := func(s sliceStats) float64 { return s.ThroughputPS / speed(s) }
	if spec.open {
		// The schedule sets an open loop's throughput, not the box.
		throughput = func(s sliceStats) float64 { return s.ThroughputPS }
	}
	attempted, failed := 0, 0
	for _, p := range m.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return map[string]float64{
		"error_ratio":      float64(failed) / float64(attempted),
		"throughput_per_s": m.overSlices(throughput),
		"latency_p50_us":   m.overSlices(func(s sliceStats) float64 { return s.P50Us * speed(s) }),
		"latency_p90_us":   m.overSlices(func(s sliceStats) float64 { return s.P90Us * speed(s) }),
		"cpu_us_per_stmt":  m.overSlices(func(s sliceStats) float64 { return s.CPUUsPerStmt * speed(s) }),
		"allocs_per_stmt":  m.overSlices(func(s sliceStats) float64 { return s.AllocsPerStmt }),
		"slo_ok_ratio":     float64(m.withinSLO) / float64(m.sent),
		"peak_rss_mb":      rssMiB,
		"setup_s":          setupS,
	}
}

// runWorkload is one run of one workload in this process: set-up
// (setupReps times, each between two readings of the yardstick and
// scaled to the reference box's speed like a slice, for a steady
// setup_s), inputs, and then either the untraced window or the traced
// pass.
func runWorkload(spec workloadSpec, opt runOptions) (*workloadReport, error) {
	dir := filepath.Join(opt.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	reps := setupReps
	if opt.quick || opt.trace {
		reps = 1 // setup_s is not reported by a traced run
	}
	var r *rig
	var data *trainData
	var models map[string]*core.Model
	var setups []float64
	var times setupTimes
	before := yardstick(opt.probe())
	for rep := 0; rep < reps; rep++ {
		if r != nil {
			r.close()
			// Drop the previous set-up's garbage, so that peak_rss_mb is
			// one set-up's footprint and not three.
			runtime.GC()
		}
		var err error
		r, data, models, times, err = setUp(spec, opt.sessions(), dir, opt.trace)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		after := yardstick(opt.probe())
		setups = append(setups, times.total.Seconds()*calibRef/((before+after)/2))
		before = after
	}
	if r != nil {
		defer r.close()
	}
	// A traced run spends a third of its time on an untraced window of
	// the workload, for the program's counters and the latency the
	// layers must explain.
	window := opt
	if opt.trace {
		window.seconds = opt.seconds / 3
	}
	in, err := newInputs(opt.seed, data.statements(), window.warmup(), window.window(), window.probe())
	if err != nil {
		return nil, err
	}
	rep := &workloadReport{
		Name: spec.name, Why: spec.why, Seed: opt.seed, Seconds: opt.seconds,
		Traced: opt.trace, InputsSHA256: in.hash(),
		Metrics: map[string]metricValue{}, Layers: map[string]metricValue{},
	}
	var m *measured
	if opt.trace {
		m, err = runTraced(spec, r, data, in, opt, window, models)
	} else {
		m, err = measure(spec, r, in, opt)
	}
	if err != nil {
		return nil, err
	}
	m.layers["synth.generate_s"] = times.synth.Seconds()
	m.layers["core.train_setup_s"] = times.train.Seconds()
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	for name, v := range endToEndMetrics(spec, m, median(setups), rss) {
		rep.Metrics[name] = metricValue{v, unitOf(name)}
	}
	for name, v := range m.layers {
		rep.Layers[name] = metricValue{v, unitOf(name)}
	}
	rep.Slices, rep.Phases = m.slices, m.phases
	rep.Checked, rep.Wrong, rep.FirstWrong = m.checked, m.wrong, m.firstWrong
	rep.Correct = m.wrong == 0 && rep.Metrics["error_ratio"].Value == 0
	return rep, nil
}
