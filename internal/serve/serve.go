// Package serve turns a trained core.Model into a concurrent, batched
// prediction service.
//
// The paper predicts SQL query properties *before execution* precisely
// so the predictions can sit in the interactive path of a database
// frontend — which means one trained model must answer many users'
// requests at once. A core.Model is not safe for concurrent use (its
// predict path reuses internal scratch, the allocation-free contract
// of internal/nn), so a Predictor wraps it with a pool of shared-
// weight inference replicas (core.Model.Replicate, built on the same
// nn.ParallelModel.CloneShared mechanism as data-parallel training):
// requests flow through a bounded queue to persistent worker
// goroutines, each owning one replica, with an optional micro-batching
// window so bursts amortize dispatch overhead.
//
// Because replicas share weights and the forward math is identical,
// pooled predictions are bit-identical to direct sequential Model
// calls; the warm single-prediction path performs zero allocations for
// the neural models.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/workpool"
)

// ErrClosed is returned by the prediction methods when the Predictor
// has been closed.
var ErrClosed = errors.New("serve: predictor closed")

// ErrQueueFull is returned under the AdmitReject admission policy when
// the request queue is full at enqueue time.
var ErrQueueFull = errors.New("serve: request queue full")

// ErrPanicked is returned (wrapped, with the panic value) for a
// request whose inference panicked. The panic is confined to that one
// request: the worker recovers, the pool keeps serving, and a replica
// that panics PanicLimit times is retired and rebuilt from the model
// snapshot. Match with errors.Is.
var ErrPanicked = errors.New("serve: model panicked")

// AdmissionPolicy selects what happens when a request arrives and the
// bounded queue is full.
type AdmissionPolicy int

const (
	// AdmitBlock applies backpressure: senders wait for queue space,
	// still honoring cancellation while they wait.
	AdmitBlock AdmissionPolicy = iota
	// AdmitReject fails fast: a request arriving at a full queue returns
	// ErrQueueFull instead of waiting, bounding worst-case latency under
	// overload (the admission-control mode a deadline-driven front-end
	// wants).
	AdmitReject
)

// Options configures a Predictor.
type Options struct {
	// Replicas is the number of worker goroutines, each owning one
	// shared-weight model replica. <= 0 selects GOMAXPROCS.
	Replicas int
	// QueueSize bounds the request queue; senders block (backpressure)
	// when it is full. <= 0 selects max(4*Replicas, 2*MaxBatch).
	QueueSize int
	// BatchWindow is how long a worker holding a non-full batch waits
	// for more requests before running it. 0 disables waiting: workers
	// still drain whatever is already queued (opportunistic batching)
	// but never sit on a request.
	BatchWindow time.Duration
	// MaxBatch caps how many requests one worker drains per batch.
	// <= 0 selects 32.
	MaxBatch int
	// Admission selects the full-queue behavior (default AdmitBlock).
	Admission AdmissionPolicy
	// PanicLimit is how many panics one replica absorbs before it is
	// retired and rebuilt from the model snapshot (fresh scratch state;
	// weights are shared and immutable either way). <= 0 selects 3.
	PanicLimit int
}

// withDefaults resolves unset options.
func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.PanicLimit <= 0 {
		o.PanicLimit = 3
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4 * o.Replicas
		if o.QueueSize < 2*o.MaxBatch {
			o.QueueSize = 2 * o.MaxBatch
		}
	}
	return o
}

// reqKind selects which prediction a request carries.
type reqKind uint8

const (
	probsKind reqKind = iota
	logKind
	numKinds
)

// Request lifecycle states. A queued request is owned jointly by the
// caller and the worker pool; the state CAS decides who wins when a
// cancellation races a worker picking the request up.
const (
	reqQueued    uint32 = iota // waiting in the queue (or a worker's batch)
	reqRunning                 // a worker won the CAS and is computing it
	reqAbandoned               // the caller won the CAS after cancellation
)

// request is one queued prediction. Requests are pooled and their done
// channel (buffered, capacity 1) is reused, so the warm request path
// allocates nothing.
type request struct {
	kind reqKind
	stmt string
	dst  []float64 // caller-provided output buffer (probsKind)
	out  []float64
	val  float64
	// err is the per-request failure (ErrPanicked-wrapped) set by the
	// worker before the done signal; nil on success.
	err  error
	enq  time.Time
	done chan struct{}
	// state arbitrates caller cancellation vs. worker pickup: exactly
	// one side transitions it away from reqQueued. An abandoned request
	// is released back to the pool by the worker that drains it; a
	// running one by the caller after the done signal.
	state atomic.Uint32
}

// Predictor serves predictions from a pool of shared-weight replicas
// of one trained model. It is safe for concurrent use and its results
// are bit-identical to sequential calls on the wrapped model.
//
// There is one request path with four entry points: ProbsIntoCtx and
// ProbsBatchCtx return class distributions (the argmax class is the
// first maximum), PredictLogCtx and PredictLogBatchCtx log-space
// regression values (metrics.InverseLogTransform with Model().LogMin
// recovers the label's units). All four honor cancellation and
// deadlines while a request is queued, apply the configured admission
// policy, and return ErrClosed after Close; the warm in-deadline
// single-statement path allocates nothing.
//
// Cancellation granularity: a context is honored up to the moment a
// worker picks the request up. Once inference has started it runs to
// completion (single predictions take microseconds) and the call
// returns the result rather than the context error.
type Predictor struct {
	model *core.Model
	opts  Options

	queue    chan *request
	pool     *workpool.Pool
	replicas []*core.Model
	reqPool  sync.Pool

	mu          sync.RWMutex // guards closed against in-flight sends
	closed      bool
	workersDone chan struct{}

	start time.Time
	stats statsState
}

// NewPredictor builds and starts a predictor for a trained model. The
// caller should Close it to release the worker goroutines, and must
// not mutate the model (e.g. core.FineTune) while the predictor is
// live — replicas alias its weights.
func NewPredictor(m *core.Model, opts Options) *Predictor {
	opts = opts.withDefaults()
	p := &Predictor{
		model:       m,
		opts:        opts,
		queue:       make(chan *request, opts.QueueSize),
		replicas:    make([]*core.Model, opts.Replicas),
		workersDone: make(chan struct{}),
		start:       time.Now(),
	}
	for i := range p.replicas {
		p.replicas[i] = m.Replicate()
	}
	p.stats.lat = make([]latRing, opts.Replicas)
	p.reqPool.New = func() any {
		return &request{done: make(chan struct{}, 1)}
	}
	p.pool = workpool.New(opts.Replicas)
	go func() {
		// Workers park in their request loops until Close; the pool's
		// broadcast Run doubles as the "all workers exited" barrier.
		p.pool.Run(p.worker)
		p.pool.Close()
		close(p.workersDone)
	}()
	return p
}

// Model returns the wrapped model.
func (p *Predictor) Model() *core.Model { return p.model }

// Close drains in-flight requests, stops the workers, and releases the
// pool. It is idempotent and safe to call from any number of
// goroutines racing with in-flight enqueues: requests admitted before
// Close complete normally, calls arriving after return ErrClosed.
func (p *Predictor) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.queue)
	}
	p.mu.Unlock()
	<-p.workersDone
}

// ProbsIntoCtx writes the class distribution for a statement into dst
// (grown only when capacity is insufficient) and returns the written
// slice (nil for regression models). It honors ctx cancellation and
// deadlines while the request is queued, returns ErrQueueFull under
// the AdmitReject policy, and ErrClosed after Close. With a
// capacity-sufficient dst the warm in-deadline path performs zero
// allocations.
func (p *Predictor) ProbsIntoCtx(ctx context.Context, stmt string, dst []float64) ([]float64, error) {
	out, _, err := p.do(ctx, probsKind, stmt, dst)
	return out, err
}

// PredictLogCtx returns the log-space regression prediction (0 for
// classification models), with ProbsIntoCtx's context, admission, and
// close semantics.
func (p *Predictor) PredictLogCtx(ctx context.Context, stmt string) (float64, error) {
	_, val, err := p.do(ctx, logKind, stmt, nil)
	return val, err
}

// ProbsBatchCtx computes the class distribution for every statement
// across the replica pool, in input order. On error (cancellation,
// rejection, close) it returns nil results and the first error;
// requests already in flight are awaited or abandoned, never leaked.
func (p *Predictor) ProbsBatchCtx(ctx context.Context, stmts []string) ([][]float64, error) {
	out := make([][]float64, len(stmts))
	if err := p.doBatch(ctx, probsKind, stmts, func(i int, r *request) { out[i] = r.out }); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictLogBatchCtx computes the log-space regression prediction for
// every statement across the replica pool, in input order, with the
// same error semantics as ProbsBatchCtx.
func (p *Predictor) PredictLogBatchCtx(ctx context.Context, stmts []string) ([]float64, error) {
	out := make([]float64, len(stmts))
	if err := p.doBatch(ctx, logKind, stmts, func(i int, r *request) { out[i] = r.val }); err != nil {
		return nil, err
	}
	return out, nil
}

// do runs one request end to end: enqueue, await, copy the result out,
// release the pooled request.
func (p *Predictor) do(ctx context.Context, kind reqKind, stmt string, dst []float64) ([]float64, float64, error) {
	r, err := p.enqueue(ctx, kind, stmt, dst)
	if err != nil {
		return nil, 0, err
	}
	if err := p.await(ctx, r); err != nil {
		return nil, 0, err
	}
	out, val, err := r.out, r.val, r.err
	p.release(r)
	return out, val, err
}

// doBatch enqueues one request per statement — so the whole replica
// pool works the batch at once — then awaits them in input order,
// handing each completed request to collect before releasing it. It
// stops enqueueing at the first enqueue error but still settles every
// request already in flight, and returns the first error seen.
func (p *Predictor) doBatch(ctx context.Context, kind reqKind, stmts []string, collect func(i int, r *request)) error {
	reqs := make([]*request, 0, len(stmts))
	var firstErr error
	for _, s := range stmts {
		r, err := p.enqueue(ctx, kind, s, nil)
		if err != nil {
			firstErr = err
			break
		}
		reqs = append(reqs, r)
	}
	for i, r := range reqs {
		if err := p.await(ctx, r); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue // abandoned; the draining worker releases it
		}
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		collect(i, r)
		p.release(r)
	}
	return firstErr
}

// newRequest takes a pooled request and initializes it for one
// prediction.
func (p *Predictor) newRequest(kind reqKind, stmt string, dst []float64) *request {
	r := p.reqPool.Get().(*request)
	r.kind, r.stmt, r.dst = kind, stmt, dst
	r.out, r.err = nil, nil
	r.state.Store(reqQueued)
	r.enq = time.Now()
	return r
}

// enqueue submits a request honoring ctx and the admission policy:
// it returns ErrClosed after Close, ErrQueueFull when the queue is
// full under AdmitReject, and ctx.Err() when ctx expires while waiting
// for queue space under AdmitBlock.
func (p *Predictor) enqueue(ctx context.Context, kind reqKind, stmt string, dst []float64) (*request, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := p.newRequest(kind, stmt, dst)
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		p.release(r)
		return nil, ErrClosed
	}
	// Fast path: queue has room (the common case for both policies).
	select {
	case p.queue <- r:
		p.mu.RUnlock()
		return r, nil
	default:
	}
	if p.opts.Admission == AdmitReject {
		p.mu.RUnlock()
		p.release(r)
		p.stats.rejected.Add(1)
		return nil, ErrQueueFull
	}
	select {
	case p.queue <- r:
		p.mu.RUnlock()
		return r, nil
	case <-ctx.Done():
		p.mu.RUnlock()
		p.release(r)
		return nil, ctx.Err()
	}
}

// await waits for a request to complete, honoring ctx while it is
// still queued. On cancellation it races the workers for ownership:
// winning means the request is marked abandoned (the draining worker
// releases it) and the context error is returned; losing means a
// worker is already computing the result, which is imminent, so await
// waits it out and returns nil. After a nil return the caller owns r
// and must release it.
func (p *Predictor) await(ctx context.Context, r *request) error {
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		if r.state.CompareAndSwap(reqQueued, reqAbandoned) {
			p.stats.canceled.Add(1)
			return ctx.Err()
		}
		// A worker won the pickup race (or already finished — select
		// picks randomly among ready cases, so the done signal may
		// already be buffered).
		<-r.done
		return nil
	}
}

// release returns a completed request to the pool.
func (p *Predictor) release(r *request) {
	r.stmt = ""
	r.dst, r.out, r.err = nil, nil, nil
	p.reqPool.Put(r)
}

// workerScratch holds one worker's batching buffers, preallocated at
// MaxBatch capacity so the warm fused path allocates nothing.
type workerScratch struct {
	// groups partitions one drained batch by request kind. The split
	// happens up front, before any group runs: once a request's done
	// signal fires its object can be recycled through the pool, so the
	// worker must never read a completed request's fields again.
	groups [numKinds][]*request
	stmts  []string
	dsts   [][]float64
	vals   []float64
}

func newWorkerScratch(maxBatch int) *workerScratch {
	sc := &workerScratch{
		stmts: make([]string, 0, maxBatch),
		dsts:  make([][]float64, 0, maxBatch),
		vals:  make([]float64, 0, maxBatch),
	}
	for i := range sc.groups {
		sc.groups[i] = make([]*request, 0, maxBatch)
	}
	return sc
}

// worker is one replica loop: take a request, gather a micro-batch,
// run it, repeat until the queue closes. The worker first wins the
// ownership CAS for every request in the batch (so cancellation races
// settle before any compute), then partitions the owned requests by
// prediction kind and runs each group of two or more as ONE fused
// batched forward on the replica — the n-row matrix path of
// core.Model's Batch methods — splitting the results back per request.
//
// Fault isolation is preserved exactly: a fused call that panics
// completes nothing, and the worker falls back to per-request
// processing of that group, where the existing per-request recover
// boundary fails only the poisoned request (counted once in
// Stats().Panics) and serves the rest. Replica rebuild strikes accrue
// only from those per-request panics, so a replica is retired after
// PanicLimit genuinely failed requests, same as before batching.
func (p *Predictor) worker(w int) {
	ring := &p.stats.lat[w]
	batch := make([]*request, 0, p.opts.MaxBatch)
	sc := newWorkerScratch(p.opts.MaxBatch)
	var timer *time.Timer
	panics := 0
	for {
		r, ok := <-p.queue
		if !ok {
			return
		}
		batch = append(batch[:0], r)
		batch = p.gather(batch, &timer)
		// Count the batch before signaling any completion so Stats
		// taken right after a request finishes never sees Batches (or
		// Completed, counted at request completion) lagging the work
		// done.
		p.stats.batches.Add(1)
		// Win the ownership race against cancellation before touching
		// any request (dst aliases the caller's buffer): a caller that
		// abandoned a request has already returned. Partition by kind
		// in the same pass — after a group completes, its pooled
		// request objects may be recycled, so no field can be re-read.
		for i := range sc.groups {
			sc.groups[i] = sc.groups[i][:0]
		}
		for _, r := range batch {
			if !r.state.CompareAndSwap(reqQueued, reqRunning) {
				p.release(r)
				continue
			}
			sc.groups[r.kind] = append(sc.groups[r.kind], r)
		}
		for kind := range sc.groups {
			group := sc.groups[kind]
			if len(group) == 0 {
				continue
			}
			if len(group) > 1 && p.runFused(p.replicas[w], ring, reqKind(kind), group, sc) {
				continue
			}
			// Width-1 group, or fused-panic fallback: per-request
			// processing with the per-request recover boundary.
			for _, r := range group {
				p.process(w, ring, r, &panics)
			}
		}
	}
}

// runFused runs one same-kind group of owned requests as a single
// fused batched call, reporting whether it completed. On a panic
// anywhere inside the fused forward it returns false having completed
// NO request — no done signal sent, no counters touched — so the
// caller's per-request fallback re-runs the whole group and only the
// poisoned request fails.
func (p *Predictor) runFused(rep *core.Model, ring *latRing, kind reqKind, group []*request, sc *workerScratch) (ok bool) {
	n := len(group)
	sc.stmts = sc.stmts[:0]
	for _, r := range group {
		sc.stmts = append(sc.stmts, r.stmt)
	}
	defer func() {
		if v := recover(); v != nil {
			ok = false
		}
	}()
	switch kind {
	case probsKind:
		sc.dsts = sc.dsts[:0]
		for _, r := range group {
			sc.dsts = append(sc.dsts, r.dst)
		}
		if res := rep.ProbsBatchInto(sc.stmts, sc.dsts); res != nil {
			sc.dsts = res
			for i, r := range group {
				r.out = res[i]
			}
		}
	default:
		if res := rep.PredictLogBatchInto(sc.stmts, sc.vals); res != nil {
			sc.vals = res
			for i, r := range group {
				r.val = res[i]
			}
		} else {
			// Kind/model mismatch (log request on a classification
			// model): the scalar path writes the zero value, and pooled
			// requests carry stale fields, so mirror it explicitly.
			for _, r := range group {
				r.val = 0
			}
		}
	}
	for _, r := range group {
		d := time.Since(r.enq)
		ring.record(d)
		p.stats.recordWidth(n, d)
		p.stats.completed.Add(1)
		r.done <- struct{}{}
	}
	// Drop caller-buffer and statement references so completed
	// requests' memory is not retained until the next fused batch.
	for i := range sc.dsts {
		sc.dsts[i] = nil
	}
	for i := range sc.stmts {
		sc.stmts[i] = ""
	}
	return true
}

// gather fills the batch up to MaxBatch: first by draining whatever is
// already queued (yielding once to let already-runnable clients land
// their sends), then — when a BatchWindow is configured — by waiting
// up to the window for more. The per-worker timer is reused across
// batches so the warm path allocates nothing.
func (p *Predictor) gather(batch []*request, timer **time.Timer) []*request {
	// Opportunistic fusing: a channel send to a blocked worker schedules
	// the worker immediately (runnext), so under concurrent load the
	// first drain often sees just one request while the other clients
	// are still runnable but haven't sent yet. One Gosched lets them
	// run and enqueue, widening the fused batch without spending any
	// wall-clock on a timer; at low load it's a few hundred ns.
	for spin := 0; ; spin++ {
		for len(batch) < p.opts.MaxBatch {
			select {
			case r, ok := <-p.queue:
				if !ok {
					return batch
				}
				batch = append(batch, r)
				continue
			default:
			}
			break
		}
		if spin > 0 || len(batch) >= p.opts.MaxBatch || p.opts.MaxBatch <= 1 {
			break
		}
		runtime.Gosched()
	}
	if p.opts.BatchWindow <= 0 || len(batch) >= p.opts.MaxBatch {
		return batch
	}
	t := *timer
	if t == nil {
		t = time.NewTimer(p.opts.BatchWindow)
		*timer = t
	} else {
		t.Reset(p.opts.BatchWindow)
	}
	for len(batch) < p.opts.MaxBatch {
		select {
		case r, ok := <-p.queue:
			if !ok {
				stopTimer(t)
				return batch
			}
			batch = append(batch, r)
		case <-t.C:
			return batch
		}
	}
	stopTimer(t)
	return batch
}

// stopTimer stops t and drains its channel so the next Reset starts
// clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// process runs one request on worker w's replica and signals
// completion. All accounting happens before the done signal: a caller
// that observed its request finish must find it reflected in Stats.
//
// The recover boundary is here, around exactly one request: a model
// panic (poisoned input, corrupted scratch) fails that request with a
// wrapped ErrPanicked, counts one strike against the replica — at
// PanicLimit strikes it is retired and rebuilt from the model snapshot
// — and the worker moves on. The deferred check runs on the success
// path too but recover() is nil there, so the warm no-fault path stays
// allocation-free.
func (p *Predictor) process(w int, ring *latRing, r *request, strikes *int) {
	defer func() {
		if v := recover(); v != nil {
			r.out = nil
			r.err = fmt.Errorf("%w: %v", ErrPanicked, v)
			p.stats.panics.Add(1)
			if *strikes++; *strikes >= p.opts.PanicLimit {
				p.replicas[w] = p.model.Replicate()
				p.stats.rebuilds.Add(1)
				*strikes = 0
			}
			ring.record(time.Since(r.enq))
			r.done <- struct{}{}
		}
	}()
	rep := p.replicas[w]
	switch r.kind {
	case probsKind:
		r.out = rep.ProbsInto(r.stmt, r.dst)
	default:
		r.val = rep.PredictLog(r.stmt)
	}
	d := time.Since(r.enq)
	ring.record(d)
	p.stats.recordWidth(1, d)
	p.stats.completed.Add(1)
	r.done <- struct{}{}
}
