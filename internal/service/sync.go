package service

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the shared-store control plane: nodes that point at the
// same store directory converge on one registry state without any RPC
// between them. Each syncStore pass re-lists the store, installs
// artifact versions this node has not seen, and adopts live markers
// written by other nodes — but only when the marker's generation
// exceeds the entry's (see entry.gen), so a node's own explicit
// deploys always win ties. Damage discovered mid-sync gets exactly
// WarmBoot's quarantine treatment.

// SyncReport summarizes one syncStore pass. The zero value means "no
// change observed".
type SyncReport struct {
	// Loaded counts artifact versions newly installed this pass.
	Loaded int `json:"loaded"`
	// NewModels lists registry entries created by this pass (models
	// first registered on another node).
	NewModels []string `json:"new_models,omitempty"`
	// Applied lists deployments adopted from other nodes' live markers.
	Applied []ModelInfo `json:"applied,omitempty"`
	// Quarantined counts blobs parked under quarantine/ this pass.
	Quarantined int `json:"quarantined"`
	// Details is the incident log: one line per quarantine or
	// deployment that could not be applied.
	Details []string `json:"details,omitempty"`
}

// Changed reports whether the pass observed anything at all.
func (r *SyncReport) Changed() bool {
	return r.Loaded > 0 || len(r.NewModels) > 0 || len(r.Applied) > 0 ||
		r.Quarantined > 0 || len(r.Details) > 0
}

func (r *SyncReport) String() string {
	return fmt.Sprintf("loaded %d version(s), %d new model(s), applied %d deploy(s), quarantined %d",
		r.Loaded, len(r.NewModels), len(r.Applied), r.Quarantined)
}

// detailf appends one incident line.
func (r *SyncReport) detailf(format string, args ...any) {
	r.Details = append(r.Details, fmt.Sprintf(format, args...))
}

// syncStore performs one convergence pass against the store: it
// installs artifact versions registered by other nodes (creating
// registry entries for models this node has never seen), and applies
// live markers whose generation is newer than the local entry's.
// Blobs damaged mid-sync are quarantined with WarmBoot's semantics;
// a marker naming a version this node cannot reconstruct is reported
// and skipped (the next pass retries). Keys that vanish between List
// and Get — another node pruning retention — are skipped silently.
//
// A no-op on a storeless service. Safe for concurrent use with every
// other Service method.
func (s *Service) syncStore() (*SyncReport, error) {
	rep := &SyncReport{}
	if s.opts.Store == nil {
		return rep, nil
	}
	if s.isClosed() {
		return nil, ErrClosed
	}
	r := &replay{
		s: s, op: "sync",
		loaded: &rep.Loaded, quarantined: &rep.Quarantined, detailf: rep.detailf,
	}
	sc, err := r.scan()
	if err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(sc.versions) {
		created, err := r.install(name, sc.versions[name])
		if err != nil {
			return nil, err
		}
		if created {
			rep.NewModels = append(rep.NewModels, name)
		}
	}
	for _, name := range sortedKeys(sc.live) {
		rec := sc.live[name]
		if rec.Version == 0 {
			continue // damaged; the scan quarantined it
		}
		e, err := s.entry(name)
		if errors.Is(err, ErrNotFound) {
			rep.detailf("live marker for %q but no intact artifacts; deployment not applied", name)
			continue
		}
		if err != nil {
			return nil, err
		}
		if err := s.adopt(rep, e, rec); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// adopt applies a live marker observed in the store when its
// generation is newer than the entry's. Ties (and older markers) lose
// to local state: this node's own deploys set the generation they
// persisted, so a marker it merely observes must strictly exceed it.
func (s *Service) adopt(rep *SyncReport, e *entry, rec liveRecord) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if rec.Gen <= e.gen {
		return nil
	}
	if cur := e.live.Load(); cur != nil && cur.version == rec.Version {
		// Already serving this version (typically our own marker read
		// back): adopt the generation, skip the pool churn.
		e.gen = rec.Gen
		return nil
	}
	if e.version(rec.Version) == nil {
		rep.detailf("live marker for %q names v%d (gen %d) but the version is not intact here; not applied",
			e.name, rec.Version, rec.Gen)
		return nil
	}
	if s.isClosed() {
		return ErrClosed
	}
	e.swapLive(rec.Version, s.opts.Serve)
	e.gen = rec.Gen
	rep.Applied = append(rep.Applied, e.info(rec.Version))
	return nil
}

// WatchStore starts a background goroutine that runs syncStore every
// interval — the poll loop that makes serviced nodes sharing one store
// directory converge without a control plane. logf (optional) receives
// one line per pass that changed anything and one per sync error. The
// returned stop function halts the watcher and waits for it to exit;
// it is idempotent. The watcher also exits on its own once the service
// closes. A no-op (returning an immediate stop) when the service has
// no store or interval <= 0.
func (s *Service) WatchStore(interval time.Duration, logf func(format string, args ...any)) (stop func()) {
	if s.opts.Store == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			rep, err := s.syncStore()
			if err != nil {
				if errors.Is(err, ErrClosed) {
					return
				}
				if logf != nil {
					logf("store sync: %v", err)
				}
				continue
			}
			if logf != nil && rep.Changed() {
				logf("store sync: %s", rep)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}
