package synth

import (
	"runtime"
	"sync"

	"repro/internal/simdb"
)

// labeller computes a generated workload's labels while the generator
// is still building its later statements: each distinct (engine,
// statement) pair is executed once, on one of runtime.GOMAXPROCS(0)
// workers. A label is a pure function of that pair (the engine draws
// its noise from a stream seeded by the statement's hash), so neither
// the order nor the goroutine that computes it can change it. An
// engine must not be modified, nor its catalog grown, once a statement
// has been queued on it.
type labeller struct {
	slots  map[labelKey]int
	chunks []*[labelChunk]simdb.Result // slot s is chunks[s/labelChunk][s%labelChunk]
	n      int                         // slots handed out
	jobs   chan labelJob
	wg     sync.WaitGroup
}

// labelChunk is how many labels one allocation holds. Workers write
// through pointers into chunks, which never move as more are added.
const labelChunk = 256

type labelKey struct {
	engine *simdb.Engine
	stmt   string
}

type labelJob struct {
	labelKey
	dst *simdb.Result
}

func newLabeller() *labeller {
	workers := runtime.GOMAXPROCS(0)
	l := &labeller{
		slots: map[labelKey]int{},
		// A generator may run a chunk ahead of the workers, so drawing
		// the next statements seldom waits for one to take a job.
		jobs: make(chan labelJob, labelChunk),
	}
	l.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer l.wg.Done()
			for j := range l.jobs {
				*j.dst = j.engine.Execute(j.stmt)
			}
		}()
	}
	return l
}

// add returns the slot of stmt's label on engine, queueing the
// execution the first time the pair is seen.
func (l *labeller) add(engine *simdb.Engine, stmt string) int {
	k := labelKey{engine, stmt}
	if s, ok := l.slots[k]; ok {
		return s
	}
	s := l.n
	l.n++
	if s%labelChunk == 0 {
		l.chunks = append(l.chunks, new([labelChunk]simdb.Result))
	}
	l.slots[k] = s
	l.jobs <- labelJob{k, &l.chunks[s/labelChunk][s%labelChunk]}
	return s
}

// results waits for every queued execution and returns the labels by
// slot. The labeller takes no more statements afterwards.
func (l *labeller) results() []simdb.Result {
	close(l.jobs)
	l.wg.Wait()
	out := make([]simdb.Result, l.n)
	for s := range out {
		out[s] = l.chunks[s/labelChunk][s%labelChunk]
	}
	return out
}
