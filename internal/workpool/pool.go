// Package workpool provides a fixed set of persistent worker
// goroutines with a broadcast-barrier primitive. It replaces per-batch
// goroutine fan-out (the training engine used to spawn Workers
// goroutines for every mini-batch) with long-lived workers that are
// handed jobs over per-worker channels, cutting spawn overhead for
// tiny models. core.Trainer is its one user.
package workpool

import "sync"

// Pool is a fixed-size set of persistent worker goroutines. Each
// worker has a stable id in [0, Size()) so callers can bind per-worker
// state (model replicas, gradient shards, RNGs) by index.
//
// Run is a broadcast barrier: it hands the job to every worker and
// waits for all of them — the per-mini-batch fan-out of core.Trainer.
//
// Run must not be called concurrently with itself or Close.
type Pool struct {
	tasks []chan func(w int)
	wg    sync.WaitGroup // live worker goroutines
	runWG sync.WaitGroup // in-flight jobs of the current Run
}

// New starts a pool of n persistent workers (n < 1 is treated as 1).
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{tasks: make([]chan func(w int), n)}
	for w := range p.tasks {
		ch := make(chan func(w int), 1)
		p.tasks[w] = ch
		p.wg.Add(1)
		go func(w int, ch chan func(w int)) {
			defer p.wg.Done()
			for f := range ch {
				f(w)
				p.runWG.Done()
			}
		}(w, ch)
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.tasks) }

// Run executes f(w) on every worker concurrently and returns when all
// calls have completed.
func (p *Pool) Run(f func(w int)) {
	p.runWG.Add(len(p.tasks))
	for _, ch := range p.tasks {
		ch <- f
	}
	p.runWG.Wait()
}

// Close stops the workers after any in-flight jobs finish. The pool
// must not be used afterwards.
func (p *Pool) Close() {
	for _, ch := range p.tasks {
		close(ch)
	}
	p.wg.Wait()
}
