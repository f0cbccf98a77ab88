// Package faults is a deterministic, seedable fault injector for the
// serving stack's failure-path tests.
//
// The PR 1–5 stack is bit-exact and fast on the happy path; this
// package exists to prove it degrades instead of dying off it. An
// Injector evaluates a schedule of Rules — injected errors, latency,
// partial (torn) writes — against a stream of operations, driven by a
// seeded PRNG plus a per-rule match counter, so a failing chaos run
// reproduces exactly from its seed: same seed, same operation
// sequence, same injected faults, every time.
//
// Store wraps any blob store satisfying the service.Store method set
// (Put/Get/List/Delete) with injection at each operation. The Blob
// interface here is structural — this package deliberately does not
// import internal/service, so service-package tests can import faults
// without an import cycle, and *Store still satisfies service.Store.
//
// Corrupt, Truncate, and TornTemp simulate the damage a crash or bad
// disk leaves behind (a flipped byte mid-artifact, a half-written
// blob, a leftover rename temp file) for boot-resilience tests.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"
)

// ErrInjected is the default error injected by rules that do not carry
// their own. Match with errors.Is.
var ErrInjected = errors.New("faults: injected error")

// Op names the operation class a Rule matches. The store wrapper emits
// OpPut/OpGet/OpList/OpDelete.
type Op string

const (
	OpPut    Op = "put"
	OpGet    Op = "get"
	OpList   Op = "list"
	OpDelete Op = "delete"
	// OpAny matches every operation.
	OpAny Op = ""
)

// Rule is one entry in an injector's fault schedule. A rule matches an
// operation when the Op matches (OpAny matches all), the key has
// KeyPrefix (empty matches all), and the match index falls inside the
// [After, After+Count) window (Count 0 = unbounded). A matching rule
// then fires with probability Rate (0 is treated as 1: deterministic
// schedules are the common case).
type Rule struct {
	// Op restricts the rule to one operation class (OpAny = all).
	Op Op
	// KeyPrefix restricts the rule to keys with this prefix ("" = all).
	KeyPrefix string
	// After skips the first After matching operations — "fail the 3rd
	// Put" schedules.
	After int
	// Count caps how many times the rule fires (0 = no cap).
	Count int
	// Rate is the firing probability for matches inside the window.
	// <= 0 means always fire (deterministic); draws come from the
	// injector's seeded PRNG, so runs are reproducible.
	Rate float64
	// Err is the injected error (nil selects ErrInjected). A rule with
	// Latency > 0 and no Err injects delay only and lets the operation
	// through; any other firing rule fails it.
	Err error
	// Latency is slept before the operation proceeds (or fails, when
	// the rule also injects an error).
	Latency time.Duration
	// Partial marks Put rules as torn writes: the wrapped store
	// receives only the first half of the payload, with its last byte
	// flipped, and the caller still gets an error — the on-disk damage
	// a crash mid-write leaves for the next boot to discover.
	Partial bool
}

// fails reports whether the rule injects an error (vs latency only).
func (r Rule) fails() bool {
	return r.Err != nil || r.Partial || r.Latency == 0
}

// err resolves the rule's injected error.
func (r Rule) err() error {
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}

// Event is one injected fault, recorded in order for reproducibility
// assertions and post-run reports.
type Event struct {
	// Seq is the global operation index (across all ops seen by the
	// injector, fired or not) at which the fault fired.
	Seq uint64
	// Op and Key identify the operation the fault was injected into.
	Op  Op
	Key string
	// Kind is "error", "latency", or "partial".
	Kind string
}

// Decision is the injector's verdict for one operation.
type Decision struct {
	// Err, when non-nil, is returned to the caller in place of (or, for
	// Partial, in addition to performing) the real operation.
	Err error
	// Latency is slept before acting on the decision.
	Latency time.Duration
	// Partial instructs the store wrapper to tear the write: half the
	// payload, last byte flipped, then Err to the caller.
	Partial bool
}

// Injector evaluates a fault schedule deterministically. Safe for
// concurrent use; determinism holds when the operation sequence itself
// is deterministic (single-goroutine drivers, or schedules keyed by
// prefix windows rather than rates).
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	rules  []*ruleState
	seq    uint64 // operations seen
	fired  uint64 // faults injected
	events []Event
}

// ruleState is a Rule plus its match bookkeeping.
type ruleState struct {
	Rule
	matched int // operations that matched op+prefix so far
	firedN  int // times this rule fired
}

// NewInjector creates an injector whose probabilistic draws come from
// a PRNG seeded with seed — the whole schedule replays from the seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Add appends a rule to the schedule and returns the injector for
// chaining.
func (in *Injector) Add(r Rule) *Injector {
	in.mu.Lock()
	in.rules = append(in.rules, &ruleState{Rule: r})
	in.mu.Unlock()
	return in
}

// Decide evaluates the schedule against one operation. The first rule
// that fires wins; non-firing matches still advance that rule's match
// window, so "fail the 3rd Put" means the 3rd matching Put whatever
// happened in between.
func (in *Injector) Decide(op Op, key string) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seq++
	for _, rs := range in.rules {
		if rs.Op != OpAny && rs.Op != op {
			continue
		}
		if rs.KeyPrefix != "" && !hasPrefix(key, rs.KeyPrefix) {
			continue
		}
		idx := rs.matched
		rs.matched++
		if idx < rs.After {
			continue
		}
		if rs.Count > 0 && rs.firedN >= rs.Count {
			continue
		}
		if rs.Rate > 0 && rs.Rate < 1 && in.rng.Float64() >= rs.Rate {
			continue
		}
		rs.firedN++
		in.fired++
		d := Decision{Latency: rs.Latency, Partial: rs.Partial}
		kind := "latency"
		if rs.Partial {
			kind = "partial"
			d.Err = rs.err()
		} else if rs.fails() {
			kind = "error"
			d.Err = rs.err()
		}
		in.events = append(in.events, Event{Seq: in.seq, Op: op, Key: key, Kind: kind})
		return d
	}
	return Decision{}
}

// Stats reports operations seen and faults injected.
func (in *Injector) Stats() (ops, injected uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.seq, in.fired
}

// Events returns a copy of the injected-fault log, in firing order.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// hasPrefix avoids importing strings for one call.
func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// Blob is the method set of service.Store, declared structurally so
// this package never imports internal/service (tests there import
// faults; the cycle is broken here). Any service.Store satisfies Blob
// and *Store satisfies service.Store.
type Blob interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	List() ([]string, error)
	Delete(key string) error
}

// Store wraps a blob store with fault injection on every operation.
type Store struct {
	inner Blob
	inj   *Injector
	// sleep is swappable so latency schedules stay fast in tests.
	sleep func(time.Duration)
}

// NewStore wraps inner with inj's schedule.
func NewStore(inner Blob, inj *Injector) *Store {
	return &Store{inner: inner, inj: inj, sleep: time.Sleep}
}

// Put implements the store contract with injection: latency rules
// delay it, error rules fail it without touching the inner store, and
// partial rules tear it — the inner store receives half the payload
// with the final byte flipped and the caller still sees the error, the
// on-disk state a crash mid-write leaves behind.
func (s *Store) Put(key string, data []byte) error {
	d := s.inj.Decide(OpPut, key)
	if d.Latency > 0 {
		s.sleep(d.Latency)
	}
	if d.Partial {
		torn := append([]byte(nil), data[:(len(data)+1)/2]...)
		if len(torn) > 0 {
			torn[len(torn)-1] ^= 0xff
		}
		s.inner.Put(key, torn) // best effort: the "crash" already happened
		return fmt.Errorf("faults: torn write of %q: %w", key, d.Err)
	}
	if d.Err != nil {
		return d.Err
	}
	return s.inner.Put(key, data)
}

// Get implements the store contract with injection.
func (s *Store) Get(key string) ([]byte, error) {
	d := s.inj.Decide(OpGet, key)
	if d.Latency > 0 {
		s.sleep(d.Latency)
	}
	if d.Err != nil {
		return nil, d.Err
	}
	return s.inner.Get(key)
}

// List implements the store contract with injection.
func (s *Store) List() ([]string, error) {
	d := s.inj.Decide(OpList, "")
	if d.Latency > 0 {
		s.sleep(d.Latency)
	}
	if d.Err != nil {
		return nil, d.Err
	}
	return s.inner.List()
}

// Delete implements the store contract with injection.
func (s *Store) Delete(key string) error {
	d := s.inj.Decide(OpDelete, key)
	if d.Latency > 0 {
		s.sleep(d.Latency)
	}
	if d.Err != nil {
		return d.Err
	}
	return s.inner.Delete(key)
}

// Corrupt flips one byte in the middle of the blob at key, in place —
// the single-bit rot a checksummed artifact format exists to catch.
func Corrupt(st Blob, key string) error {
	data, err := st.Get(key)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("faults: corrupt %q: empty blob", key)
	}
	data[len(data)/2] ^= 0x20
	return st.Put(key, data)
}

// Truncate cuts the blob at key down to frac of its length (0 <= frac
// < 1) — the torn tail a crash mid-write leaves.
func Truncate(st Blob, key string, frac float64) error {
	data, err := st.Get(key)
	if err != nil {
		return err
	}
	n := int(float64(len(data)) * frac)
	if n >= len(data) {
		n = len(data) - 1
	}
	if n < 0 {
		n = 0
	}
	return st.Put(key, data[:n])
}

// TornTemp drops a leftover rename temp file (the ".tmp-" prefix
// service.DirStore uses) into dir, simulating a crash between
// CreateTemp and Rename. DirStore must sweep it on the next open and
// never surface it from List.
func TornTemp(dir string, payload []byte) (string, error) {
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return "", err
	}
	return f.Name(), f.Close()
}
