package service

import (
	"errors"
	"sync"
	"time"
)

// This file is the shared-store control plane: nodes that point at the
// same store directory converge on one registry state without any RPC
// between them. Each syncStore pass is the replay pass WarmBoot runs
// (replay.go), over a registry that is already serving: it installs
// artifact versions this node has not seen and adopts live markers
// written by other nodes by replay's one marker rule — newer generation
// than the entry's, or nothing of the model live — so a node's own
// explicit deploys always win ties. Damage discovered mid-sync is
// quarantined as at boot.

// syncStore performs one convergence pass against the store (creating
// registry entries for models this node has never seen). A marker
// naming a version this node cannot reconstruct is reported and
// skipped (the next pass retries); keys that vanish between List and
// Get — another node pruning retention — are skipped silently. A no-op
// on a storeless service. Safe for concurrent use with every other
// Service method.
func (s *Service) syncStore() (*Report, error) {
	rep := &Report{}
	if s.opts.Store == nil {
		return rep, nil
	}
	if s.isClosed() {
		return nil, ErrClosed
	}
	if err := (&replay{s: s, rep: rep}).run(); err != nil {
		return nil, err
	}
	return rep, nil
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
