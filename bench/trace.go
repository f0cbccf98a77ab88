package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/service"
	"repro/internal/sqllex"
	"repro/internal/wire"
)

// span is one timed call into one layer for one statement (or one
// batch of 16). The harness records spans from outside, around calls
// into each layer's public functions; spans inside the program are a
// later change.
type span struct {
	// Trace identifies the statement: its position in the workload's
	// order. Spans of one statement share it.
	Trace   int    `json:"trace"`
	Callers int    `json:"callers"` // concurrent tracers during the pass
	Name    string `json:"name"`
	// Parent is the next outer layer, whose span for the same statement
	// notionally contains this one. The calls are made one after the
	// other, not nested, so a parent's interval does not cover its
	// child's; self time is the difference of the two durations.
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// rung is one entry point of the ladder: a layer's public function,
// called for one statement at a time. Only call is timed; replies are
// left in the tracer's pending list and verified after the span ends.
type rung struct {
	name  string
	below string                     // the layer one step in; self time = this span − that span
	prep  func(t *tracer, trace int) // untimed, before call (optional)
	call  func(t *tracer, trace int) error
	done  func(t *tracer, trace int) error // untimed, after call (optional)
}

// shared is what all tracers of a pass call into.
type shared struct {
	r       *rig
	in      *inputs
	order   func(trace int) int // pool index of the trace-th statement
	pred    *serve.Predictor
	handler http.Handler
	wireU   *wire.Client
	wireT   *wire.Client
	unix    *client.Client
	http    *client.Client
	cluster *client.Client
}

// tracer is one caller walking the ladder; it owns the scratch a
// single caller would own.
type tracer struct {
	*shared
	model *core.Model // private replica, called directly
	enc   *sqllex.Encoder
	check *checker
	probs []float64
	rows  [][]float64
	ctx   context.Context
	req   *http.Request
	rec   *httptest.ResponseRecorder
	// pending holds the replies of the span in progress, with the pool
	// index of each one's statement.
	pending []reply
}

type reply struct {
	stmt int
	pr   service.Prediction
}

func (t *tracer) stmt(trace int) string { return t.in.stmt(t.order(trace)) }

// got queues one reply of the current span for verification.
func (t *tracer) got(trace int, pr service.Prediction, err error) error {
	if err == nil {
		t.pending = append(t.pending, reply{t.order(trace), pr})
	}
	return err
}

func (t *tracer) gotBatch(b int, prs []service.Prediction, err error) error {
	if err == nil && len(prs) != batchSize {
		err = fmt.Errorf("batch reply has %d rows", len(prs))
	}
	if err == nil {
		for k := range prs {
			t.pending = append(t.pending, reply{int(t.in.Batches[b%len(t.in.Batches)][k]), prs[k]})
		}
	}
	return err
}

// The serve rung calls a Predictor of the harness's own (the service
// does not expose its pool), which sits idle while the seven rungs
// above it exercise the service's pool; measured cold against warm, the
// service came out faster than the serve layer under it. warm makes
// the first, untimed call of a rung so that both pools are timed on
// their second call in a row, as a closed-loop caller finds them.
func warm(call func(t *tracer, trace int) error) func(t *tracer, trace int) {
	return func(t *tracer, trace int) {
		call(t, trace) // an error shows again in the timed call
		t.pending = t.pending[:0]
	}
}

func callServe(t *tracer, i int) error {
	if !t.model.Task.IsClassification() {
		_, err := t.pred.PredictLogCtx(t.ctx, t.stmt(i))
		return err
	}
	out, err := t.pred.ProbsIntoCtx(t.ctx, t.stmt(i), t.probs)
	t.probs = out
	return err
}

func callService(t *tracer, i int) error {
	pr, err := t.r.svc.PredictInto(t.ctx, t.r.name, t.stmt(i), t.probs)
	return t.got(i, pr, err)
}

func callServeBatch(t *tracer, b int) error {
	if t.model.Task.IsClassification() {
		_, err := t.pred.ProbsBatchCtx(t.ctx, t.in.batch(b))
		return err
	}
	_, err := t.pred.PredictLogBatchCtx(t.ctx, t.in.batch(b))
	return err
}

func callServiceBatch(t *tracer, b int) error {
	prs, err := t.r.svc.PredictBatch(t.ctx, t.r.name, t.in.batch(b))
	return t.gotBatch(b, prs, err)
}

// singles is the ladder for one statement: every entry point in turn
// for that statement. Interleaving per statement, not per layer, is
// what cancels the box's drift; measured layer by layer, a prototype
// produced a service faster than the serve layer under it.
var singles = []rung{
	{name: "sqllex", call: func(t *tracer, i int) error { t.enc.Encode(t.stmt(i)); return nil }},
	{name: "core", below: "sqllex", call: func(t *tracer, i int) error {
		t.probs = predictDirect(t.model, t.stmt(i), t.probs)
		return nil
	}},
	{name: "serve", below: "core", prep: warm(callServe), call: callServe},
	{name: "service", below: "serve", prep: warm(callService), call: callService},
	{name: "wire", below: "service", call: func(t *tracer, i int) error {
		pr, probs, err := t.wireU.PredictInto(t.ctx, t.r.name, t.stmt(i), t.probs)
		t.probs = probs
		return t.got(i, pr, err)
	}},
	{name: "client", below: "wire", call: func(t *tracer, i int) error {
		pr, probs, err := t.unix.PredictInto(t.ctx, t.r.name, t.stmt(i), t.probs)
		t.probs = probs
		return t.got(i, pr, err)
	}},
	{name: "wire.tcp", below: "service", call: func(t *tracer, i int) error {
		pr, probs, err := t.wireT.PredictInto(t.ctx, t.r.name, t.stmt(i), t.probs)
		t.probs = probs
		return t.got(i, pr, err)
	}},
	{
		name: "http.handler", below: "service",
		prep: func(t *tracer, i int) {
			// json.Marshal of two strings cannot fail.
			body, _ := json.Marshal(map[string]string{"model": t.r.name, "statement": t.stmt(i)})
			t.req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
			t.rec = httptest.NewRecorder()
		},
		call: func(t *tracer, i int) error { t.handler.ServeHTTP(t.rec, t.req); return nil },
		done: func(t *tracer, i int) error {
			var resp struct {
				Results []service.Prediction `json:"results"`
			}
			if t.rec.Code != http.StatusOK {
				return fmt.Errorf("handler status %d", t.rec.Code)
			}
			if err := json.Unmarshal(t.rec.Body.Bytes(), &resp); err != nil {
				return err
			}
			if len(resp.Results) != 1 {
				return fmt.Errorf("handler returned %d results", len(resp.Results))
			}
			return t.got(i, resp.Results[0], nil)
		},
	},
	{name: "client.http", below: "http.handler", call: func(t *tracer, i int) error {
		pr, err := t.http.Predict(t.ctx, t.r.name, t.stmt(i))
		return t.got(i, pr, err)
	}},
	{name: "client.cluster", below: "client", call: func(t *tracer, i int) error {
		pr, probs, err := t.cluster.PredictInto(t.ctx, t.r.name, t.stmt(i), t.probs)
		t.probs = probs
		return t.got(i, pr, err)
	}},
}

// batches is the ladder for one request of 16 statements.
var batches = []rung{
	{name: "core.batch16", call: func(t *tracer, b int) error {
		if t.model.Task.IsClassification() {
			t.rows = t.model.ProbsBatchInto(t.in.batch(b), t.rows)
		} else {
			t.probs = t.model.PredictLogBatchInto(t.in.batch(b), t.probs)
		}
		return nil
	}},
	{name: "serve.batch16", below: "core.batch16", prep: warm(callServeBatch), call: callServeBatch},
	{name: "service.batch16", below: "serve.batch16", prep: warm(callServiceBatch), call: callServiceBatch},
	{name: "wire.batch16", below: "service.batch16", call: func(t *tracer, b int) error {
		prs, err := t.wireU.PredictBatch(t.ctx, t.r.name, t.in.batch(b))
		return t.gotBatch(b, prs, err)
	}},
	{name: "client.batch16", below: "wire.batch16", call: func(t *tracer, b int) error {
		prs, err := t.unix.PredictBatch(t.ctx, t.r.name, t.in.batch(b))
		return t.gotBatch(b, prs, err)
	}},
}

// parentOf names the first rung that sits directly on top of a layer.
func parentOf(name string) string {
	for _, ladder := range [][]rung{singles, batches} {
		for _, r := range ladder {
			if r.below == name {
				return r.name
			}
		}
	}
	return ""
}

// pass is the outcome of walking the ladders for a while.
type pass struct {
	spans     []span
	attempted int
	failed    int
	checked   int
	wrong     int
	first     string
}

// over returns the median, over the statements of the pass, of the
// outer rung's span minus the inner rung's for the same statement;
// with inner "" it is the median span. A rung's self time is
// over(rung, rung.below).
func (p *pass) over(outer, inner string) float64 {
	byTrace := map[int]float64{}
	for _, s := range p.spans {
		if s.Name == inner {
			byTrace[s.Trace] = float64(s.EndNs - s.StartNs)
		}
	}
	var v []float64
	for _, s := range p.spans {
		if s.Name == outer {
			v = append(v, float64(s.EndNs-s.StartNs)-byTrace[s.Trace])
		}
	}
	return median(v)
}

// walk runs the ladders from callers concurrent tracers for about d:
// each tracer takes every callers-th statement of the workload's
// order, walks the single-statement ladder for it, and after every
// eighth statement walks the batch ladder once. Every reply is checked
// bit for bit, outside the spans.
func walk(sh *shared, models map[string]*core.Model, callers int, d time.Duration) (*pass, error) {
	results := make([]*pass, callers)
	errs := make([]error, callers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			m := models[sh.r.name].Replicate()
			enc, err := encoderOf(m)
			if err != nil {
				errs[c] = err
				return
			}
			t := &tracer{shared: sh, model: m, enc: enc, check: newChecker(sh.in, sh.r.reference), ctx: context.Background()}
			p := &pass{}
			record := func(r rung, trace int) {
				if r.prep != nil {
					r.prep(t, trace)
				}
				start := time.Since(t0)
				err := r.call(t, trace)
				end := time.Since(t0)
				p.spans = append(p.spans, span{trace, callers, r.name, parentOf(r.name), int64(start), int64(end)})
				if err == nil && r.done != nil {
					err = r.done(t, trace)
				}
				ok := err == nil
				for i := range t.pending {
					ok = t.check.verify(t.pending[i].stmt, &t.pending[i].pr) && ok
				}
				t.pending = t.pending[:0]
				p.attempted++
				if !ok {
					p.failed++
				}
			}
			for k := 0; time.Since(t0) < d; k++ {
				trace := k*callers + c
				for _, r := range singles {
					record(r, trace)
				}
				if k%8 == 7 {
					for _, r := range batches {
						record(r, trace/8)
					}
				}
			}
			p.checked, p.wrong, p.first = t.check.checked, t.check.wrong, t.check.firstWrong
			results[c] = p
		}(c)
	}
	wg.Wait()
	all := &pass{}
	for c, p := range results {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all.spans = append(all.spans, p.spans...)
		all.attempted += p.attempted
		all.failed += p.failed
		all.checked += p.checked
		all.wrong += p.wrong
		if all.first == "" {
			all.first = p.first
		}
	}
	return all, nil
}

// runTraced is the traced run of one workload: a short untraced
// window (for the program's counters and the latency the layers must
// explain), the ladders at one caller and at two, a traced-against-
// untraced loop of the outermost call, and the workload-independent
// layer measurements. Nothing here feeds the end-to-end numbers.
func runTraced(spec workloadSpec, r *rig, data *trainData, in *inputs, opt, window runOptions, models map[string]*core.Model) (*measured, error) {
	m, err := measure(spec, r, in, window)
	if err != nil {
		return nil, err
	}
	scale := opt.seconds / defaultSeconds
	if err := layerBench(m.layers, r, data, in, models, scale, r.dir); err != nil {
		return nil, fmt.Errorf("layer measurements: %w", err)
	}

	sh := &shared{r: r, in: in, order: func(trace int) int { return trace }}
	if spec.open {
		// The open loop's Zipf order, past its warm-up.
		first := in.Steps[1].First
		sh.order = func(trace int) int { return int(in.Arrivals[first+trace%(len(in.Arrivals)-first)].Stmt) }
	}
	sh.pred = serve.NewPredictor(models[r.name], serve.Options{Replicas: procs})
	defer sh.pred.Close()
	sh.handler = service.NewHandler(r.svc)
	sh.wireU = wire.Dial("unix", r.unixURL[len("unix:"):], wire.ClientOptions{})
	defer sh.wireU.Close()
	sh.wireT = wire.Dial("tcp", r.tcpURL[len("tcp://"):], wire.ClientOptions{})
	defer sh.wireT.Close()
	var clients []*client.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for _, c := range []struct {
		url  string
		opts client.Options
	}{
		{r.unixURL, client.Options{}},
		{r.httpURL, client.Options{}},
		{r.unixURL, client.Options{Addrs: []string{r.unix2URL}}},
	} {
		cl, err := client.New(c.url, c.opts)
		if err != nil {
			return nil, err
		}
		clients = append(clients, cl)
	}
	sh.unix, sh.http, sh.cluster = clients[0], clients[1], clients[2]

	walkFor := time.Duration(opt.seconds / 5 * float64(time.Second))
	one, err := walk(sh, models, 1, walkFor)
	if err != nil {
		return nil, err
	}
	two, err := walk(sh, models, procs, walkFor)
	if err != nil {
		return nil, err
	}
	l := m.layers
	l["serve.self_ns"] = one.over("serve", "core")
	l["serve.self_c2_ns"] = two.over("serve", "core")
	l["service.self_ns"] = one.over("service", "serve")
	l["service.batch16_self_ns"] = one.over("service.batch16", "serve.batch16")
	l["wire.self_ns"] = one.over("wire", "service")
	l["wire.tcp_self_ns"] = one.over("wire.tcp", "service")
	l["wire.batch16_self_ns"] = one.over("wire.batch16", "service.batch16")
	l["http.handler_ns"] = one.over("http.handler", "service")
	l["http.self_ns"] = one.over("client.http", "service")
	l["client.self_ns"] = one.over("client", "wire")
	l["client.cluster_route_ns"] = one.over("client.cluster", "client")

	// The remainder the layers do not explain: the untraced p50 of the
	// workload's own operation less the outermost span of its chain at
	// the workload's concurrency, which by construction is the sum of
	// the self times under it.
	outer := "client"
	switch {
	case spec.batch:
		outer = "client.batch16"
	case spec.http:
		outer = "client.http"
	}
	if spec.model != "" {
		// Both as measured: the spans are not scaled to the reference
		// box's speed, so the p50 they must explain is not either.
		p50 := m.overSlices(func(s sliceStats) float64 { return s.P50Us })
		l["trace.unexplained_us"] = p50 - two.over(outer, "")/1e3
	}
	l["trace.spans"] = float64(len(one.spans) + len(two.spans))

	// Tracing overhead: the outermost call in a closed loop of one
	// caller, with and without a span recorded around it, alternating.
	var top rung
	for _, ladder := range [][]rung{singles, batches} {
		for _, rg := range ladder {
			if rg.name == outer {
				top = rg
			}
		}
	}
	t := &tracer{shared: sh, model: models[r.name].Replicate(), check: newChecker(in, r.reference), ctx: context.Background()}
	var traced, untraced float64
	leg := time.Duration(scale * float64(250*time.Millisecond))
	var scratch []span
	for round := 0; round < 2; round++ {
		t0 := time.Now()
		traced += 1 / loopFor(1, leg, func(_, i int) {
			start := time.Since(t0)
			top.call(t, i)
			scratch = append(scratch[:0], span{i, 1, top.name, "", int64(start), int64(time.Since(t0))})
			t.pending = t.pending[:0]
		})
		untraced += 1 / loopFor(1, leg, func(_, i int) {
			top.call(t, i)
			t.pending = t.pending[:0]
		})
	}
	l["trace.overhead_ratio"] = traced / untraced

	for _, p := range []*pass{one, two} {
		m.count(fmt.Sprintf("trace-c%d", p.spans[0].Callers), p.attempted-p.failed, p.failed)
		m.checked += p.checked
		m.wrong += p.wrong
		if m.firstWrong == "" {
			m.firstWrong = p.first
		}
	}
	return m, writeSpans(filepath.Join(opt.outDir, spec.name+".trace.jsonl"), one.spans, two.spans)
}

// writeSpans writes the spans kept in memory as JSON lines, once the
// measurements are over.
func writeSpans(path string, sets ...[]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, spans := range sets {
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
