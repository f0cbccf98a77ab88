package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/artifact"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/f64"
	"repro/internal/ingest"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/sqllex"
	"repro/internal/wire"
)

// timeEach calls f(0..n-1), timing each call, and returns the median
// in nanoseconds. For calls of a microsecond and up.
func timeEach(n int, f func(i int)) float64 {
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		f(i)
		d[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(d)
}

// timeReps times samples batches of reps calls and returns the median
// nanoseconds per call. For calls too short to time one by one.
func timeReps(samples, reps int, f func()) float64 {
	return timeEach(samples, func(int) {
		for r := 0; r < reps; r++ {
			f()
		}
	}) / float64(reps)
}

// allocsPer returns the process's mallocs per call of f over n calls.
// Process-wide, so with a server in the process it counts both sides
// of the loopback.
func allocsPer(n int, f func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// loopFor runs f from callers goroutines for about d and returns calls
// per second.
func loopFor(callers int, d time.Duration, f func(caller, i int)) float64 {
	var calls atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := 0
			for ; time.Since(t0) < d; i++ {
				f(c, i)
			}
			calls.Add(int64(i))
		}(c)
	}
	wg.Wait()
	return float64(calls.Load()) / time.Since(t0).Seconds()
}

// encoderOf rebuilds a model's sqllex.Encoder from its exported state:
// the same vocabulary, granularity and length cap the model encodes
// with, reachable without touching core's private fields.
func encoderOf(m *core.Model) (*sqllex.Encoder, error) {
	st, err := m.ExportState()
	if err != nil {
		return nil, err
	}
	vocab, err := sqllex.VocabularyFromTokens(st.Vocab)
	if err != nil {
		return nil, err
	}
	return sqllex.NewEncoder(vocab, m.Name[0] == 'w', st.MaxLen), nil
}

// predictDirect runs one statement through a model the way the serving
// layers do for its task.
func predictDirect(m *core.Model, stmt string, buf []float64) []float64 {
	if m.Task.IsClassification() {
		return m.ProbsInto(stmt, buf)
	}
	m.PredictLog(stmt)
	return buf
}

// layerBench takes the per-layer measurements that do not depend on
// the workload's traffic: each calls one layer's public functions
// directly on fixed or seeded inputs. scale stretches the iteration
// counts with -seconds (1 at the default 15s).
func layerBench(l map[string]float64, r *rig, data *trainData, in *inputs, models map[string]*core.Model, scale float64, dir string) error {
	n := func(base int) int { return max(1, int(float64(base)*scale)) }
	span := func(base time.Duration) time.Duration { return time.Duration(float64(base) * scale) }
	ctx := context.Background()

	// sqllex, core, nn: encode then predict, statement by statement, on
	// private replicas.
	var encAllocs float64
	for _, mb := range []struct {
		name  string
		stmts int
	}{{"wcnn", 2000}, {"ccnn", 1000}, {"clstm", 300}} {
		m := models[mb.name].Replicate()
		enc, err := encoderOf(m)
		if err != nil {
			return err
		}
		count := n(mb.stmts)
		encode, predict, forward := make([]float64, count), make([]float64, count), make([]float64, count)
		var buf []float64
		for i := 0; i < count; i++ {
			stmt := in.stmt(i)
			t0 := time.Now()
			enc.Encode(stmt)
			t1 := time.Now()
			buf = predictDirect(m, stmt, buf)
			t2 := time.Now()
			encode[i] = float64(t1.Sub(t0).Nanoseconds())
			predict[i] = float64(t2.Sub(t1).Nanoseconds())
			forward[i] = predict[i] - encode[i]
		}
		l["core.predict_"+mb.name+"_ns"] = median(predict)
		l["nn.forward_"+mb.name+"_ns"] = median(forward)
		switch mb.name {
		case "wcnn":
			l["sqllex.encode_word_ns"] = median(encode)
			encAllocs += allocsPer(count, func(i int) { enc.Encode(in.stmt(i)) })
		case "ccnn":
			l["sqllex.encode_char_ns"] = median(encode)
			encAllocs += allocsPer(count, func(i int) { enc.Encode(in.stmt(i)) })
		}
		if mb.name != "wcnn" {
			var rows [][]float64
			batches := n(mb.stmts / 16)
			l["core.batch16_"+mb.name+"_ns_per_stmt"] = timeEach(batches, func(i int) {
				rows = m.ProbsBatchInto(in.batch(i), rows)
			}) / batchSize
		}
	}
	l["sqllex.encode_allocs"] = encAllocs / 2

	// f64: the kernel shapes the models spend their time in.
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	a, b, c := fill(48*12), fill(12*16), make([]float64, 48*16)
	l["f64.gemm_m48n16k12_ns"] = timeReps(n(21), 2000, func() {
		clear(c) // Gemm accumulates into c
		f64.Gemm(c, a, b, 48, 16, 12)
	})
	mat, x, y := fill(256*64), fill(64), make([]float64, 256)
	l["f64.gemv_256x64_ns"] = timeReps(n(21), 500, func() { f64.GemvN(y, mat, x) })
	vin, vout := fill(1024), make([]float64, 1024)
	l["f64.tanhv_ns_per_elt"] = timeReps(n(21), 100, func() { f64.TanhV(vout, vin) }) / 1024
	l["f64.expv_ns_per_elt"] = timeReps(n(21), 100, func() { f64.ExpV(vout, vin) }) / 1024

	// core training: the train workload's shard at one and two workers
	// (a slice of it in the self-test's short runs).
	shard := in.shard()[:max(16, n(shardSize))]
	var sum [3]float64 // seconds by worker count, both models
	for _, name := range []string{"ccnn", "clstm"} {
		for workers := 1; workers <= 2; workers++ {
			reps := n(3)
			if name == "clstm" {
				reps = n(2)
			}
			var trainErr error
			sec := timeEach(reps, func(int) {
				if _, err := core.Train(name, core.ErrorClassification, shard, trainConfig(workers)); err != nil {
					trainErr = err
				}
			}) / 1e9
			if trainErr != nil {
				return trainErr
			}
			l[fmt.Sprintf("core.train_%s_w%d_ex_per_s", name, workers)] = float64(len(shard)) / sec
			sum[workers] += sec
		}
	}
	l["core.train_scaling_w2"] = sum[1] / sum[2]
	var tuneErr error
	l["core.finetune_ccnn_ex_per_s"] = float64(len(shard)) / (timeEach(n(3), func(int) {
		if _, err := core.FineTune(models["ccnn"].Snapshot(), shard, trainConfig(1)); err != nil {
			tuneErr = err
		}
	}) / 1e9)
	if tuneErr != nil {
		return tuneErr
	}
	l["core.snapshot_ms"] = timeEach(20, func(int) { models["ccnn"].Snapshot() }) / 1e6
	// The exact-repeat guard: same seed, same data, same numbers, or a
	// kernel or refactor moved the models.
	l["core.accuracy_ccnn"] = core.EvaluateClassifier(models["ccnn"].Replicate(), core.ErrorClassification, data.split.Test).Accuracy
	l["core.mse_wcnn"] = core.EvaluateRegressor(models["wcnn"].Replicate(), core.CPUTimePrediction, data.split.Test).MSE

	var blob []byte
	var artErr error
	l["artifact.encode_ms"] = timeEach(5, func(int) { blob, artErr = artifact.Encode(models["ccnn"]) }) / 1e6
	if artErr != nil {
		return artErr
	}
	l["artifact.decode_ms"] = timeEach(5, func(int) { _, artErr = artifact.Decode(blob) }) / 1e6
	if artErr != nil {
		return artErr
	}

	// serve: request fusion under 16 callers, and the cost of Stats with
	// full latency rings.
	var probs [16][]float64
	for _, leg := range []struct {
		name     string
		maxBatch int
	}{{"serve.fused_c16_per_s", 32}, {"serve.unfused_c16_per_s", 1}} {
		p := serve.NewPredictor(models["clstm"], serve.Options{Replicas: procs, MaxBatch: leg.maxBatch})
		var failed atomic.Bool
		l[leg.name] = loopFor(16, span(600*time.Millisecond), func(c, i int) {
			out, err := p.ProbsIntoCtx(ctx, in.stmt(c*1000+i), probs[c])
			if err != nil {
				failed.Store(true)
			}
			probs[c] = out
		})
		p.Close()
		if failed.Load() {
			return errors.New("serve fusion leg: a prediction failed")
		}
	}
	l["serve.fusion_gain"] = l["serve.fused_c16_per_s"] / l["serve.unfused_c16_per_s"]
	p := serve.NewPredictor(models["wcnn"], serve.Options{Replicas: procs})
	loopFor(4, span(200*time.Millisecond), func(c, i int) { p.PredictLogCtx(ctx, in.stmt(c*1000+i)) })
	l["serve.stats_call_us"] = timeEach(20, func(int) { p.Stats() }) / 1e3
	p.Close()

	// service: the ingest tax (two services, one logging every predict,
	// statement by statement), Observe, and the registry operations on
	// a MemStore.
	wal, err := ingest.Open(filepath.Join(dir, "layer-wal"), ingest.Options{})
	if err != nil {
		return err
	}
	defer wal.Close()
	store := service.NewMemStore()
	plain := service.New(service.Options{Serve: serve.Options{Replicas: procs}})
	defer plain.Close()
	logged := service.New(service.Options{Serve: serve.Options{Replicas: procs}, Store: store, Ingest: wal, IngestEvery: 1})
	defer logged.Close()
	if _, err := plain.Swap("ccnn", models["ccnn"]); err != nil {
		return err
	}
	l["service.register_ms"] = timeEach(5, func(int) { _, err = logged.Register("ccnn", models["ccnn"]) }) / 1e6
	if err != nil {
		return err
	}
	l["service.swap_ms"] = timeEach(5, func(int) { _, err = logged.Swap("ccnn", models["ccnn"]) }) / 1e6
	if err != nil {
		return err
	}
	count := n(600)
	tax := make([]float64, count)
	var buf []float64
	for i := range tax {
		t0 := time.Now()
		_, err1 := plain.PredictInto(ctx, "ccnn", in.stmt(i), buf)
		t1 := time.Now()
		_, err2 := logged.PredictInto(ctx, "ccnn", in.stmt(i), buf)
		t2 := time.Now()
		if err1 != nil || err2 != nil {
			return fmt.Errorf("ingest tax: %v %v", err1, err2)
		}
		tax[i] = float64(t2.Sub(t1).Nanoseconds() - t1.Sub(t0).Nanoseconds())
	}
	l["service.ingest_tax_ns"] = median(tax)
	l["service.observe_ns"] = timeEach(n(2000), func(i int) { err = logged.Observe("ccnn", in.stmt(i), 1, 0) })
	if err != nil {
		return err
	}
	rebooted := service.New(service.Options{Serve: serve.Options{Replicas: procs}, Store: store})
	l["service.warmboot_ms"] = timeEach(1, func(int) { _, err = rebooted.WarmBoot() }) / 1e6
	rebooted.Close()
	if err != nil {
		return err
	}

	// ingest: append and replay on a log of its own.
	log2, err := ingest.Open(filepath.Join(dir, "layer-wal2"), ingest.Options{})
	if err != nil {
		return err
	}
	defer log2.Close()
	rec := func(i int) ingest.Record {
		return ingest.Record{Time: int64(i), Kind: ingest.Predicted, Model: "ccnn", Statement: in.stmt(i), Class: 1}
	}
	records := n(200) * 100
	appendBatch := func(k int) {
		for i := k * 100; i < (k+1)*100; i++ {
			if e := log2.Append(rec(i)); e != nil {
				err = e
			}
		}
	}
	l["ingest.append_ns"] = timeEach(records/100, appendBatch) / 100
	l["ingest.append_allocs"] = allocsPer(records/100, appendBatch) / 100
	if err != nil {
		return err
	}
	if err := log2.Sync(); err != nil {
		return err
	}
	var bytes int64
	segs, err := ingest.Segments(log2.Dir())
	if err != nil {
		return err
	}
	for _, seq := range segs {
		fi, err := os.Stat(ingest.SegmentPath(log2.Dir(), seq))
		if err != nil {
			return err
		}
		bytes += fi.Size()
	}
	l["ingest.bytes_per_rec"] = float64(bytes) / float64(2*records)
	reader := ingest.OpenReader(log2.Dir(), ingest.Pos{})
	defer reader.Close()
	read := 0
	t0 := time.Now()
	for {
		var got ingest.Record
		if err := reader.Next(&got); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return err
		}
		read++
	}
	if read != 2*records {
		return fmt.Errorf("ingest replay: read %d records, appended %d", read, 2*records)
	}
	l["ingest.read_ns_per_rec"] = float64(time.Since(t0).Nanoseconds()) / float64(read)

	// wire: the frame codec alone, two callers pipelining on one client,
	// and allocations per round trip; http allocations beside them.
	payload := []byte(in.stmt(0))
	var frame []byte
	var codecErr error
	l["wire.codec_ns"] = timeReps(n(21), 2000, func() {
		frame = wire.AppendFrame(frame[:0], wire.MsgPredict, 7, payload)
		if _, _, _, err := wire.DecodeFrame(frame, 0); err != nil {
			codecErr = err
		}
	})
	if codecErr != nil {
		return codecErr
	}
	ring := cluster.NewRing([]string{"unix://a", "unix://b", "unix://c"}, 0)
	order := make([]int, 0, 3)
	l["cluster.order_ns"] = timeReps(n(21), 2000, func() { order = ring.OrderInto("ccnn", order[:0]) })

	if r == nil {
		return nil
	}
	wc := wire.Dial("unix", r.unixURL[len("unix:"):], wire.ClientOptions{})
	defer wc.Close()
	var out [2][]float64
	var failed atomic.Bool
	call := func(c, i int) {
		_, p, err := wc.PredictInto(ctx, r.name, in.stmt(c*1000+i), out[c])
		if err != nil {
			failed.Store(true)
		}
		out[c] = p
	}
	l["wire.pipelined_c2_per_s"] = loopFor(2, span(500*time.Millisecond), call)
	l["wire.allocs_per_op"] = allocsPer(n(2000), func(i int) { call(0, i) })
	hc, err := client.New(r.httpURL, client.Options{})
	if err != nil {
		return err
	}
	defer hc.Close()
	l["http.allocs_per_op"] = allocsPer(n(500), func(i int) {
		if _, err := hc.Predict(ctx, r.name, in.stmt(i)); err != nil {
			failed.Store(true)
		}
	})
	if failed.Load() {
		return errors.New("wire/http layer leg: a prediction failed")
	}
	return nil
}
