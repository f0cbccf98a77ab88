// Package serve turns a trained core.Model into a concurrent
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
// goroutines, each owning one replica.
//
// The caller's batch is the unit of work. A request carries the 1 to
// MaxBatch statements of one call and a worker runs them as one
// forward pass — core routes one statement to the scalar path and two
// or more to the batched n-row path, so the choice follows the input
// size. Workers never regroup what callers sent: statements from
// different calls never share a forward pass.
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
	"slices"
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
	// QueueSize bounds the queue, counted in requests: a call of up to
	// MaxBatch statements takes one slot and is admitted or refused
	// whole. Senders block (backpressure) when it is full. <= 0 selects
	// max(4*Replicas, 2*MaxBatch).
	QueueSize int
	// MaxBatch is the most statements one request — hence one batched
	// forward pass on one replica — carries; a longer batch call is cut
	// into ceil(n/MaxBatch) requests, in input order, that spread over
	// the pool. <= 0 selects 32.
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
)

// Request lifecycle states. A queued request is owned jointly by the
// caller and the worker pool; the state CAS decides who wins when a
// cancellation races a worker picking the request up.
const (
	reqQueued    uint32 = iota // waiting in the queue
	reqRunning                 // a worker won the CAS and is computing it
	reqAbandoned               // the caller won the CAS after cancellation
)

// request is the 1 to MaxBatch statements of one call, queued as a
// unit. Requests are pooled: the statement, row and value arrays and
// the done channel (buffered, capacity 1) are reused, so the warm
// request path allocates nothing and keeps no pointer into the
// caller's stack.
type request struct {
	kind  reqKind
	stmts []string
	dsts  [][]float64 // probsKind: row i's output buffer in, row i out
	vals  []float64   // logKind: value i out
	// one is where stmts, dsts and vals start out, so a single-statement
	// request is one object even when the pool has to make a new one.
	one struct {
		stmt [1]string
		dst  [1][]float64
		val  [1]float64
	}
	// err is the request's failure (ErrPanicked-wrapped) set by the
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
// recovers the label's units). A single-statement call is a batch of
// one. All four honor cancellation and deadlines while a request is
// queued, apply the configured admission policy, and return ErrClosed
// after Close; the warm in-deadline single-statement path allocates
// nothing.
//
// Cancellation granularity: a context is honored up to the moment a
// worker picks the request up. Once inference has started it runs to
// completion (a request is at most MaxBatch forward passes' worth of
// work) and the call returns the result rather than the context error.
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
	p.reqPool.New = newRequest
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

// newRequest is the request pool's constructor.
func newRequest() any {
	r := &request{done: make(chan struct{}, 1)}
	r.stmts, r.dsts, r.vals = r.one.stmt[:0], r.one.dst[:0], r.one.val[:0]
	return r
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
	stmts, dsts := [1]string{stmt}, [1][]float64{dst}
	if err := p.do(ctx, probsKind, stmts[:], dsts[:], nil); err != nil {
		return nil, err
	}
	return dsts[0], nil
}

// PredictLogCtx returns the log-space regression prediction (0 for
// classification models), with ProbsIntoCtx's context, admission, and
// close semantics.
func (p *Predictor) PredictLogCtx(ctx context.Context, stmt string) (float64, error) {
	stmts, vals := [1]string{stmt}, [1]float64{}
	err := p.do(ctx, logKind, stmts[:], nil, vals[:])
	return vals[0], err
}

// ProbsBatchCtx computes the class distribution for every statement,
// in input order. Up to MaxBatch statements travel as one request and
// run as one batched forward pass on one replica; a longer batch is
// cut into MaxBatch-sized requests that spread over the pool. On error
// (cancellation, rejection, close, a panicked statement) it returns
// nil results and the first error; requests already in flight are
// awaited or abandoned, never leaked.
func (p *Predictor) ProbsBatchCtx(ctx context.Context, stmts []string) ([][]float64, error) {
	out := make([][]float64, len(stmts))
	// Every row of the reply is carved from one slab (the worker fills
	// rows in place when they are big enough), each capped at its own
	// end so an append on one row cannot reach the next.
	m := p.model.Task.NumClasses()
	slab := make([]float64, len(stmts)*m)
	for i := range out {
		out[i] = slab[i*m : (i+1)*m : (i+1)*m]
	}
	if err := p.do(ctx, probsKind, stmts, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictLogBatchCtx computes the log-space regression prediction for
// every statement, in input order, with ProbsBatchCtx's request
// cutting and error semantics.
func (p *Predictor) PredictLogBatchCtx(ctx context.Context, stmts []string) ([]float64, error) {
	out := make([]float64, len(stmts))
	if err := p.do(ctx, logKind, stmts, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// do runs one call end to end: cut stmts into requests of at most
// MaxBatch statements and enqueue them in input order, then await
// each, copy its rows (probsKind, into dsts) or values (logKind, into
// vals) out and release it. It stops enqueueing at the first refusal
// but still settles every request already in flight, and returns the
// first error seen.
func (p *Predictor) do(ctx context.Context, kind reqKind, stmts []string, dsts [][]float64, vals []float64) error {
	var one [1]*request // the usual call is one request: keep it off the heap
	reqs := one[:0]
	var firstErr error
	for lo := 0; lo < len(stmts); lo += p.opts.MaxBatch {
		hi := min(lo+p.opts.MaxBatch, len(stmts))
		var rows [][]float64
		if kind == probsKind {
			rows = dsts[lo:hi]
		}
		r, err := p.enqueue(ctx, kind, stmts[lo:hi], rows)
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
		if firstErr == nil {
			firstErr = r.err
		}
		if kind == probsKind {
			copy(dsts[i*p.opts.MaxBatch:], r.dsts)
		} else {
			copy(vals[i*p.opts.MaxBatch:], r.vals)
		}
		p.release(r)
	}
	return firstErr
}

// enqueue submits one request honoring ctx and the admission policy:
// it returns ErrClosed after Close, ErrQueueFull when the queue is
// full under AdmitReject, and ctx.Err() when ctx expires while waiting
// for queue space under AdmitBlock. The statements and row buffers are
// copied into the pooled request's own arrays.
func (p *Predictor) enqueue(ctx context.Context, kind reqKind, stmts []string, dsts [][]float64) (*request, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r := p.reqPool.Get().(*request)
	r.kind = kind
	r.stmts = append(r.stmts[:0], stmts...)
	if kind == probsKind {
		r.dsts = append(r.dsts[:0], dsts...)
	} else {
		r.vals = slices.Grow(r.vals[:0], len(stmts))[:len(stmts)]
	}
	r.state.Store(reqQueued)
	r.enq = time.Now()
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

// release returns a request to the pool, dropping its references to
// the caller's statements and buffers.
func (p *Predictor) release(r *request) {
	clear(r.stmts)
	clear(r.dsts)
	r.err = nil
	p.reqPool.Put(r)
}

// worker is one replica loop: take a request, win the ownership CAS
// against cancellation before touching it (its rows alias the caller's
// buffers, and a caller that abandoned it has already returned), run
// its statements as one forward pass, repeat until the queue closes.
//
// Fault isolation: a forward that panics completes nothing, so the
// worker re-runs that request's statements one by one and exactly the
// poisoned ones count in Stats().Panics and as strikes against the
// replica — at PanicLimit strikes it is retired and rebuilt from the
// model snapshot. The request fails with a wrapped ErrPanicked; other
// requests are untouched.
//
// All accounting happens before the done signal: a caller that
// observed its request finish must find it reflected in Stats.
func (p *Predictor) worker(w int) {
	ring := &p.stats.lat[w]
	strikes := 0
	for r := range p.queue {
		if !r.state.CompareAndSwap(reqQueued, reqRunning) {
			p.release(r)
			continue
		}
		n := len(r.stmts)
		served, width := n, n
		if v := forward(p.replicas[w], r, 0, n); v != nil {
			served, width = 0, 1
			for i := 0; i < n; i++ {
				if n > 1 { // a lone statement has just been run alone
					v = forward(p.replicas[w], r, i, i+1)
				}
				if v == nil {
					served++
					continue
				}
				if r.err == nil {
					r.err = fmt.Errorf("%w: %v", ErrPanicked, v)
				}
				p.stats.panics.Add(1)
				if strikes++; strikes >= p.opts.PanicLimit {
					p.replicas[w] = p.model.Replicate()
					p.stats.rebuilds.Add(1)
					strikes = 0
				}
			}
		}
		ring.record(time.Since(r.enq))
		p.stats.completed.Add(uint64(served))
		p.stats.widthSum.Add(uint64(served * width))
		r.done <- struct{}{}
	}
}

// forward runs statements lo..hi of r on rep as one model call —
// core runs one statement on the scalar path and more as a batched
// n-row forward — and returns the recovered panic value, nil on
// success. The deferred recover is nil on the success path, so the
// warm no-fault path stays allocation-free.
func forward(rep *core.Model, r *request, lo, hi int) (panicked any) {
	defer func() { panicked = recover() }()
	switch r.kind {
	case probsKind:
		if rep.ProbsBatchInto(r.stmts[lo:hi], r.dsts[lo:hi:hi]) == nil {
			clear(r.dsts[lo:hi]) // regression model: no distribution, not the caller's buffer
		}
	default:
		if rep.PredictLogBatchInto(r.stmts[lo:hi], r.vals[lo:hi:hi]) == nil {
			clear(r.vals[lo:hi]) // classification model: no log head, not a stale value
		}
	}
	return nil
}
