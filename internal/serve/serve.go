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
// nn.Model.CloneShared mechanism as data-parallel training).
// A replica is borrowed, not mailed to: a call takes an idle replica
// out of the pool, runs its forward pass on its own goroutine, and
// puts the replica back. The Predictor owns no goroutine and a request
// is never handed from one goroutine to another, so a caller and the
// pool share nothing they would have to arbitrate.
//
// The caller's batch is the unit of work. A request is the 1 to
// MaxBatch statements of one call, run as one forward pass — core
// routes one statement to the scalar path and two or more to the
// batched n-row path, so the choice follows the input size.
// Statements from different calls never share a forward pass.
//
// Waiting. A call that finds every replica on loan waits for one, in
// arrival order, and while it waits it honors its context, the
// admission policy and Close. A waiter whose context is canceled or
// expires leaves at once: the place it held is free for the next
// caller the moment it returns, and Stats().QueueDepth drops with it.
// Close lets the calls that hold a replica finish, returns once every
// replica is home, and answers the calls still waiting with ErrClosed
// (a layer that swaps predictors retries those on the replacement, as
// internal/service does).
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
)

// ErrClosed is returned by the prediction methods when the Predictor
// has been closed.
var ErrClosed = errors.New("serve: predictor closed")

// ErrQueueFull is returned under the AdmitReject admission policy to a
// call that finds no idle replica and QueueSize calls already waiting.
var ErrQueueFull = errors.New("serve: request queue full")

// ErrPanicked is returned (wrapped, with the panic value) for a
// request whose inference panicked. The panic is confined to that one
// request: the call recovers, the replica goes back to the pool, and a
// replica that panics three times is retired and rebuilt from the
// model snapshot. Match with errors.Is.
var ErrPanicked = errors.New("serve: model panicked")

// AdmissionPolicy selects what happens to a request that arrives when
// no replica is idle and QueueSize requests are already waiting.
type AdmissionPolicy int

const (
	// AdmitBlock applies backpressure: the caller waits with the others,
	// still honoring cancellation while it waits.
	AdmitBlock AdmissionPolicy = iota
	// AdmitReject fails fast: the request returns ErrQueueFull instead of
	// waiting, bounding worst-case latency under overload (the
	// admission-control mode a deadline-driven front-end wants).
	AdmitReject
)

// Options configures a Predictor.
type Options struct {
	// Replicas is the number of shared-weight model replicas, hence of
	// forward passes that can run at once. <= 0 selects GOMAXPROCS.
	Replicas int
	// QueueSize bounds the requests waiting for a replica under
	// AdmitReject: a call of up to MaxBatch statements is one request,
	// admitted or refused whole. Under AdmitBlock a request past the
	// bound waits too (backpressure). <= 0 selects
	// max(4*Replicas, 2*MaxBatch).
	QueueSize int
	// MaxBatch is the most statements one request — hence one batched
	// forward pass on one replica — carries; a longer batch call is cut
	// into ceil(n/MaxBatch) requests, in input order, that spread over
	// the pool. <= 0 selects 32.
	MaxBatch int
	// Admission selects what a request past QueueSize meets (default
	// AdmitBlock).
	Admission AdmissionPolicy
}

// panicLimit is how many panics one replica absorbs before it is
// retired and rebuilt from the model snapshot (fresh scratch state;
// weights are shared and immutable either way).
const panicLimit = 3

// withDefaults resolves unset options.
func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
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

// replica is one shared-weight copy of the model and, while it is on
// loan, the slot of the request running on it: the statement, row and
// value arrays are the replica's own and are reused, so the warm
// request path allocates nothing and core never holds a pointer into
// the caller's stack. Only the call that borrowed it touches it.
type replica struct {
	model   *core.Model
	strikes int // panics absorbed since the model was last rebuilt
	stmts   []string
	dsts    [][]float64 // probsKind: row i's output buffer in, row i out
	vals    []float64   // logKind: value i out
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
// one. All four honor cancellation and deadlines while they wait for a
// replica, apply the configured admission policy, and return ErrClosed
// after Close; the warm in-deadline single-statement path allocates
// nothing. The forward pass runs on the calling goroutine: an idle
// Predictor owns none.
//
// Cancellation granularity: a context is honored up to the moment the
// call has a replica in hand. Once inference has started it runs to
// completion (a request is at most MaxBatch forward passes' worth of
// work) and the call returns the result rather than the context error.
type Predictor struct {
	model *core.Model
	opts  Options

	// idle holds every replica that is not on loan. Its capacity is
	// Replicas, so putting one back never blocks, and its receive queue
	// is first-in first-out, so waiters are served in arrival order.
	idle      chan *replica
	waiting   atomic.Int64  // calls waiting for a replica
	closing   chan struct{} // closed by Close: refuse arrivals, wake waiters
	closeOnce sync.Once

	start time.Time
	stats statsState
}

// NewPredictor builds a predictor for a trained model. The caller
// should Close it, and must not mutate the model (e.g. core.FineTune)
// while the predictor is live — replicas alias its weights.
func NewPredictor(m *core.Model, opts Options) *Predictor {
	opts = opts.withDefaults()
	p := &Predictor{
		model:   m,
		opts:    opts,
		idle:    make(chan *replica, opts.Replicas),
		closing: make(chan struct{}),
		start:   time.Now(),
	}
	for range opts.Replicas {
		p.idle <- &replica{model: m.Replicate()}
	}
	return p
}

// Model returns the wrapped model.
func (p *Predictor) Model() *core.Model { return p.model }

// Close shuts the predictor: calls that hold a replica finish
// normally, calls waiting for one and calls arriving later return
// ErrClosed, and Close returns once every replica is home. It is
// idempotent and safe to call from any number of goroutines racing
// with in-flight calls; every concurrent Close returns only then.
func (p *Predictor) Close() {
	p.closeOnce.Do(func() {
		close(p.closing)
		for range p.opts.Replicas {
			<-p.idle
		}
	})
}

// ProbsIntoCtx writes the class distribution for a statement into dst
// (grown only when capacity is insufficient) and returns the written
// slice (nil for regression models). It honors ctx cancellation and
// deadlines while it waits for a replica, returns ErrQueueFull under
// the AdmitReject policy, and ErrClosed after Close. With a
// capacity-sufficient dst the warm in-deadline path performs zero
// allocations.
func (p *Predictor) ProbsIntoCtx(ctx context.Context, stmt string, dst []float64) ([]float64, error) {
	// Straight to serve, not through do: what do hands its goroutines
	// escapes, and these arrays must stay on the stack.
	stmts, dsts := [1]string{stmt}, [1][]float64{dst}
	if err := p.serve(ctx, probsKind, stmts[:], dsts[:], nil); err != nil {
		return nil, err
	}
	return dsts[0], nil
}

// PredictLogCtx returns the log-space regression prediction (0 for
// classification models), with ProbsIntoCtx's context, admission, and
// close semantics.
func (p *Predictor) PredictLogCtx(ctx context.Context, stmt string) (float64, error) {
	stmts, vals := [1]string{stmt}, [1]float64{}
	err := p.serve(ctx, logKind, stmts[:], nil, vals[:])
	return vals[0], err
}

// ProbsBatchCtx computes the class distribution for every statement,
// in input order. Up to MaxBatch statements are one request and run as
// one batched forward pass on one replica; a longer batch is cut into
// MaxBatch-sized requests that spread over the pool, run by at most
// Replicas goroutines (the caller's included), so a long batch never
// fills the admission queue by itself. On error
// (cancellation, rejection, close, a panicked statement) it returns
// nil results and the first error in input order, after every request
// it started has put its replica back.
func (p *Predictor) ProbsBatchCtx(ctx context.Context, stmts []string) ([][]float64, error) {
	out := make([][]float64, len(stmts))
	// Every row of the reply is carved from one slab (the model fills
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

// do runs one batch call. Up to MaxBatch statements are one request,
// served right here. A longer batch is cut into MaxBatch-sized
// requests, in input order, served by at most Replicas goroutines —
// the caller and Replicas-1 helpers, each taking the next request in
// input order — so the call borrows replicas side by side but never
// has more requests waiting than it could run. do returns when every
// request has, with the first error in input order.
func (p *Predictor) do(ctx context.Context, kind reqKind, stmts []string, dsts [][]float64, vals []float64) error {
	size := p.opts.MaxBatch
	if len(stmts) <= size {
		return p.serve(ctx, kind, stmts, dsts, vals)
	}
	errs := make([]error, (len(stmts)+size-1)/size)
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1) - 1); i < len(errs); i = int(next.Add(1) - 1) {
			lo, hi := i*size, min((i+1)*size, len(stmts))
			if kind == probsKind {
				errs[i] = p.serve(ctx, kind, stmts[lo:hi], dsts[lo:hi], nil)
			} else {
				errs[i] = p.serve(ctx, kind, stmts[lo:hi], nil, vals[lo:hi])
			}
		}
	}
	var wg sync.WaitGroup
	for range min(p.opts.Replicas, len(errs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// borrow takes a replica out of the pool for one request, waiting for
// one when all are on loan. It returns ctx.Err() when ctx is done
// before a replica is in hand, ErrClosed after Close — also to a call
// that was already waiting — and ErrQueueFull under AdmitReject when
// QueueSize calls are waiting already. A waiter that gives up is gone
// from the count, and from the pool's receive queue, as it returns.
func (p *Predictor) borrow(ctx context.Context) (*replica, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-p.closing:
		return nil, ErrClosed
	default:
	}
	// Fast path: a replica is idle (the common case for both policies).
	select {
	case r := <-p.idle:
		return r, nil
	default:
	}
	waiting := p.waiting.Add(1)
	defer p.waiting.Add(-1)
	if waiting > int64(p.opts.QueueSize) && p.opts.Admission == AdmitReject {
		p.stats.rejected.Add(1)
		return nil, ErrQueueFull
	}
	select {
	case r := <-p.idle:
		return r, nil
	case <-p.closing:
		return nil, ErrClosed
	case <-ctx.Done():
		p.stats.canceled.Add(1)
		return nil, ctx.Err()
	}
}

// serve runs one request — 1 to MaxBatch statements — on a borrowed
// replica, on the caller's goroutine: copy the statements and row
// buffers into the replica's own arrays, run them as one forward pass,
// copy the rows (probsKind, into dsts) or values (logKind, into vals)
// out, and put the replica back with its references to the caller's
// statements and buffers cleared.
//
// Fault isolation: a forward that panics completes nothing, so the
// request's statements are re-run one by one and exactly the poisoned
// ones count in Stats().Panics and as strikes against the replica — at
// panicLimit strikes its model is retired and rebuilt from the
// snapshot. The request fails with a wrapped ErrPanicked; other
// requests are untouched.
//
// All accounting happens before the call returns, so a caller finds
// its finished request reflected in Stats.
func (p *Predictor) serve(ctx context.Context, kind reqKind, stmts []string, dsts [][]float64, vals []float64) error {
	start := time.Now()
	r, err := p.borrow(ctx)
	if err != nil {
		return err
	}
	defer func() {
		clear(r.stmts)
		clear(r.dsts)
		p.idle <- r
	}()
	n := len(stmts)
	r.stmts = append(r.stmts[:0], stmts...)
	if kind == probsKind {
		r.dsts = append(r.dsts[:0], dsts...)
	} else {
		r.vals = slices.Grow(r.vals[:0], n)[:n]
	}
	served, width := n, n
	if v := r.forward(kind, 0, n); v != nil {
		served, width = 0, 1
		for i := 0; i < n; i++ {
			if n > 1 { // a lone statement has just been run alone
				v = r.forward(kind, i, i+1)
			}
			if v == nil {
				served++
				continue
			}
			if err == nil {
				err = fmt.Errorf("%w: %v", ErrPanicked, v)
			}
			p.stats.panics.Add(1)
			if r.strikes++; r.strikes >= panicLimit {
				r.model = p.model.Replicate()
				p.stats.rebuilds.Add(1)
				r.strikes = 0
			}
		}
	}
	if kind == probsKind {
		copy(dsts, r.dsts)
	} else {
		copy(vals, r.vals)
	}
	p.stats.lat[latBucket(uint64(max(time.Since(start), 0)))].Add(1)
	p.stats.completed.Add(uint64(served))
	p.stats.widthSum.Add(uint64(served * width))
	return err
}

// forward runs statements lo..hi of the request on r as one model call
// — core runs one statement on the scalar path and more as a batched
// n-row forward — and returns the recovered panic value, nil on
// success. The deferred recover is nil on the success path, so the
// warm no-fault path stays allocation-free.
func (r *replica) forward(kind reqKind, lo, hi int) (panicked any) {
	defer func() { panicked = recover() }()
	switch kind {
	case probsKind:
		if r.model.ProbsBatchInto(r.stmts[lo:hi], r.dsts[lo:hi:hi]) == nil {
			clear(r.dsts[lo:hi]) // regression model: no distribution, not the caller's buffer
		}
	default:
		if r.model.PredictLogBatchInto(r.stmts[lo:hi], r.vals[lo:hi:hi]) == nil {
			clear(r.vals[lo:hi]) // classification model: no log head, not a stale value
		}
	}
	return nil
}
