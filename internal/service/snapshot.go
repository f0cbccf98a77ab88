package service

import "repro/internal/serve"

// StatsSnapshot is the single wire shape for one model's service
// metrics, shared verbatim by the HTTP handler (GET /v1/stats) and the
// binary wire transport's stats reply. Both transports marshal exactly
// this struct, so a field added to the serving layer's metrics
// (EffectiveBatch, Panics, Rebuilds, ...) can never be present
// on one transport and missing on the other.
type StatsSnapshot struct {
	Info  ModelInfo   `json:"info"`
	Stats serve.Stats `json:"stats"`
	// Online is the online-learning pipeline's state: service-wide
	// ingest counters plus this model's trainer progress. Present only
	// when the service has an ingest log or an online pipeline
	// attached.
	Online *OnlineStats `json:"online,omitempty"`
}

// OnlineStats is the online-learning pipeline's state as surfaced per
// model through /v1/stats and the wire stats reply. The ingest
// counters (Sampled, Observed, Dropped) are service-wide; the rest is
// the named model's pipeline progress, supplied by the registered
// provider (SetOnlineStats).
type OnlineStats struct {
	// Sampled counts predicts sampled into the ingest log; Observed
	// counts ground-truth outcomes logged via Observe; Dropped counts
	// append failures. All three are service-wide.
	Sampled  uint64 `json:"sampled"`
	Observed uint64 `json:"observed"`
	Dropped  uint64 `json:"dropped,omitempty"`
	// Consumed counts observed records the model's trainer has read;
	// Windows counts fine-tune windows completed; Candidates counts
	// versions fine-tuned and registered; Swaps, Rollbacks, and
	// Rejected count the canary gate's decisions.
	Consumed   uint64 `json:"consumed,omitempty"`
	Windows    uint64 `json:"windows,omitempty"`
	Candidates uint64 `json:"candidates,omitempty"`
	Swaps      uint64 `json:"swaps,omitempty"`
	Rollbacks  uint64 `json:"rollbacks,omitempty"`
	Rejected   uint64 `json:"rejected,omitempty"`
	// LastDecision is the gate's most recent decision line for this
	// model ("" until the first window completes).
	LastDecision string `json:"last_decision,omitempty"`
}

// StatsSnapshot assembles the shared stats shape for name's live
// deployment.
func (s *Service) StatsSnapshot(name string) (StatsSnapshot, error) {
	e, err := s.entry(name)
	if err != nil {
		return StatsSnapshot{}, err
	}
	lp := e.live.Load()
	if lp == nil {
		return StatsSnapshot{}, ErrNotDeployed
	}
	e.mu.Lock()
	info := e.info(lp.version)
	e.mu.Unlock()
	snap := StatsSnapshot{Info: info, Stats: lp.pred.Stats()}
	provider := s.onlineStats.Load()
	if s.opts.Ingest != nil || provider != nil {
		var online OnlineStats
		if provider != nil {
			if ps, ok := (*provider)(name); ok {
				online = ps
			}
		}
		online.Sampled = s.ingestSampled.Load()
		online.Observed = s.ingestObserved.Load()
		online.Dropped = s.ingestDropped.Load()
		snap.Online = &online
	}
	return snap, nil
}

// Health is the single readiness shape shared by GET /v1/healthz and
// the wire transport's healthz reply: the status string ("warming up",
// "ok", or "degraded") plus the warm boot's report once one has run.
type Health struct {
	Status string  `json:"status"`
	Boot   *Report `json:"boot,omitempty"`
}

// health reports the service's readiness state and whether it is ready
// to take traffic (the HTTP handler maps ready=false onto a 503, the
// wire server onto a typed unavailable error).
func (s *Service) health() (Health, bool) {
	if !s.isReady() {
		return Health{Status: "warming up", Boot: s.boot.Load()}, false
	}
	h := Health{Status: "ok", Boot: s.boot.Load()}
	if h.Boot != nil && h.Boot.Degraded {
		h.Status = "degraded"
	}
	return h, true
}
