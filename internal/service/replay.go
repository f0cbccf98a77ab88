package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/artifact"
)

// This file is how a store is read back into a registry: one pass,
// run by WarmBoot (a restart replaying its own store into an empty
// registry) and by syncStore (a node converging on a store other nodes
// write). scan classifies the keys and parses live markers, install
// decodes, validates and installs artifact versions, apply adopts each
// live marker by one rule, and every blob that fails a check is
// quarantined the same way. A boot pass differs in two ways only: a
// failed store read aborts it, and a marker it cannot adopt falls back
// to the model's highest intact version.

// Report is one replay pass's account of what it found in the store:
// the deployments it made, the artifacts it loaded, the blobs it
// quarantined as damaged, the store keys it skipped as foreign, and an
// incident log. WarmBoot's report is served in the /v1/healthz body so
// a degraded boot is observable, not just survivable. The zero value
// means "no change observed".
type Report struct {
	// Deployed lists the live deployments the pass made: markers
	// adopted, and at boot the fallbacks to a highest intact version.
	Deployed []ModelInfo `json:"deployed,omitempty"`
	// NewModels lists registry entries the pass created (at boot every
	// model; on a sync pass models first registered on another node).
	NewModels []string `json:"-"`
	// Loaded counts artifact versions newly installed.
	Loaded int `json:"loaded"`
	// Quarantined counts blobs (artifacts or live markers) moved to the
	// quarantine/ prefix: corrupt, truncated, or mislabeled.
	Quarantined int `json:"quarantined"`
	// Skipped counts store keys ignored as not ours (foreign files in a
	// store directory, previously quarantined blobs).
	Skipped int `json:"skipped"`
	// Degraded reports whether anything reached the incident log — the
	// "the pass succeeded but a human should look" bit.
	Degraded bool `json:"degraded,omitempty"`
	// Details is the incident log: one line per quarantine, fallback,
	// or marker that could not be applied.
	Details []string `json:"details,omitempty"`
}

// detailf appends one incident line.
func (r *Report) detailf(format string, args ...any) {
	r.Degraded = true
	r.Details = append(r.Details, fmt.Sprintf(format, args...))
}

// Changed reports whether the pass observed anything at all. Skipped
// keys do not count: they are skipped again on every pass.
func (r *Report) Changed() bool {
	return r.Loaded > 0 || len(r.NewModels) > 0 || len(r.Deployed) > 0 ||
		r.Quarantined > 0 || len(r.Details) > 0
}

func (r *Report) String() string {
	return fmt.Sprintf("loaded %d version(s), %d new model(s), deployed %d, quarantined %d",
		r.Loaded, len(r.NewModels), len(r.Deployed), r.Quarantined)
}

// replay is one pass over the store.
type replay struct {
	s *Service
	// boot marks WarmBoot's pass. A failed Get aborts it: a restarting
	// node must not come up on a partial registry. A sync pass instead
	// tolerates them — keys vanish between List and Get whenever
	// another node prunes retention, and anything else is logged and
	// retried on the next pass.
	boot bool
	rep  *Report
}

// run is the pass: scan the store, install every model's versions,
// then apply every live marker, models in name order.
func (r *replay) run() error {
	sc, err := r.scan()
	if err != nil {
		return err
	}
	r.rep.Skipped = sc.skipped
	for _, name := range sortedKeys(sc.versions) {
		created, err := r.install(name, sc.versions[name])
		if err != nil {
			return err
		}
		if created {
			r.rep.NewModels = append(r.rep.NewModels, name)
		}
	}
	for _, name := range sortedKeys(sc.live) {
		if err := r.apply(name, sc.live[name]); err != nil {
			return err
		}
	}
	return nil
}

// apply is the one rule for a live marker. An intact marker — one
// naming a version the entry holds — is adopted when its generation is
// newer than the entry's, or when nothing of the model is live: the
// entry then serves that version at the marker's generation, and the
// marker is not rewritten. Ties and older markers lose to local state,
// because this node's own deploys set the generation they persisted.
// A marker that cannot be adopted — damaged (the scan quarantined and
// reported it), or naming a version that is not intact here (reported,
// and retried by the next pass) — leaves the entry as it is, except at
// boot: there the model falls back to its highest intact version
// through Deploy, a new decision with a new generation.
func (r *replay) apply(name string, rec liveRecord) error {
	s := r.s
	e, err := s.entry(name)
	if errors.Is(err, ErrNotFound) {
		r.rep.detailf("live marker for %q but no intact artifacts; deployment not applied", name)
		return nil
	}
	if err != nil {
		return err
	}
	e.mu.Lock()
	cur := e.live.Load()
	if cur != nil && rec.Gen <= e.gen {
		e.mu.Unlock()
		return nil
	}
	if e.version(rec.Version) != nil {
		defer e.mu.Unlock()
		if cur == nil || cur.version != rec.Version {
			if s.isClosed() {
				return ErrClosed
			}
			e.swapLive(rec.Version, s.opts.Serve)
			r.rep.Deployed = append(r.rep.Deployed, e.info(rec.Version))
		}
		e.gen = rec.Gen
		return nil
	}
	e.mu.Unlock()
	if !r.boot {
		if rec.Version != 0 { // a damaged marker was logged by the scan
			r.rep.detailf("live marker for %q names v%d (gen %d) but the version is not intact here; not applied",
				name, rec.Version, rec.Gen)
		}
		return nil
	}
	info, err := s.Deploy(name, 0)
	if err != nil {
		r.rep.detailf("live marker for %q names v%d, not intact; deploying the highest intact version failed: %v",
			name, rec.Version, err)
		return nil
	}
	r.rep.detailf("live marker for %q names v%d, not intact; deployed the highest intact version v%d",
		name, rec.Version, info.LiveVersion)
	r.rep.Deployed = append(r.rep.Deployed, info)
	return nil
}

// storeScan is one classified listing of the store.
type storeScan struct {
	// versions maps each model to the artifact versions present,
	// ascending.
	versions map[string][]int
	// live maps each model to its live marker. A marker that failed to
	// parse was quarantined by the scan and is recorded with Version 0.
	live map[string]liveRecord
	// skipped counts keys that are not ours: foreign files in a store
	// directory, blobs parked under quarantine/ by an earlier pass.
	skipped int
}

// scan lists the store and classifies every key.
func (r *replay) scan() (*storeScan, error) {
	keys, err := r.s.opts.Store.List()
	if err != nil {
		return nil, err
	}
	sc := &storeScan{versions: make(map[string][]int), live: make(map[string]liveRecord)}
	for _, key := range keys {
		name, v, isArtifact, ok := parseKey(key)
		if !ok || strings.HasPrefix(key, quarantinePrefix) {
			sc.skipped++
			continue
		}
		if isArtifact {
			sc.versions[name] = append(sc.versions[name], v)
			continue
		}
		data, ok, err := r.get("live marker", key)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		var rec liveRecord
		if err := json.Unmarshal(data, &rec); err != nil || rec.Version <= 0 {
			if err == nil {
				err = fmt.Errorf("live marker names version %d", rec.Version)
			}
			// The marker is damaged but the artifacts may be fine.
			r.quarantine(key, data, err)
			rec = liveRecord{}
		}
		sc.live[name] = rec
	}
	for _, vs := range sc.versions {
		sort.Ints(vs)
	}
	return sc, nil
}

// get reads one blob, reporting ok == false for a read a sync pass
// tolerates.
func (r *replay) get(what, key string) (data []byte, ok bool, err error) {
	data, err = r.s.opts.Store.Get(key)
	switch {
	case err == nil:
		return data, true, nil
	case r.boot:
		return nil, false, err
	case !errors.Is(err, ErrNoKey):
		r.rep.detailf("read %s %q: %v", what, key, err)
	}
	return nil, false, nil
}

// quarantine parks a damaged blob under the quarantine prefix, where
// later passes ignore it but it is preserved verbatim for forensics
// (best effort: on failure the blob stays put and the next pass
// retries).
func (r *replay) quarantine(key string, data []byte, why error) {
	r.rep.Quarantined++
	r.rep.detailf("quarantined %q: %v", key, why)
	store := r.s.opts.Store
	if err := store.Put(quarantinePrefix+key, data); err != nil {
		r.rep.detailf("quarantine move of %q failed, blob left in place: %v", key, err)
		return
	}
	if err := store.Delete(key); err != nil {
		r.rep.detailf("quarantine delete of original %q failed: %v", key, err)
	}
}

// install loads every listed version of name that the registry does
// not hold yet and reports whether that created the registry entry. An
// entry for an unseen model is built detached and published only once
// it has an intact version, so a model whose artifacts are all damaged
// never appears in the registry.
func (r *replay) install(name string, versions []int) (created bool, err error) {
	s := r.s
	s.mu.RLock()
	closed, e := s.closed, s.entries[name]
	s.mu.RUnlock()
	if closed {
		return false, ErrClosed
	}
	known := e != nil
	if !known {
		e = &entry{name: name}
	}
	e.mu.Lock()
	// Reserve every number the store uses, loadable or not: a version
	// that fails to load is a permanent hole, never a number a later
	// Register hands out again.
	for len(e.versions) < versions[len(versions)-1] {
		e.versions = append(e.versions, nil)
	}
	for _, v := range versions {
		if e.versions[v-1] != nil {
			continue // already installed
		}
		if err := r.loadVersion(e, v); err != nil {
			e.mu.Unlock()
			return false, err
		}
	}
	avail := e.available()
	e.mu.Unlock()
	if known {
		return false, nil
	}
	if avail == 0 {
		r.rep.detailf("model %q has no intact versions; not registered", name)
		return false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if _, raced := s.entries[name]; raced {
		// A concurrent Register beat us to the name: drop the detached
		// entry; the next pass merges into the winner.
		return false, nil
	}
	s.entries[name] = e
	return true, nil
}

// loadVersion reads, decodes (checksums verified) and validates one
// artifact and installs it in e's reserved slot. An artifact that is
// corrupt, claims another version number, or does not match the
// entry's model kind and task is quarantined and its slot stays a
// hole. The first version installed fixes the entry's kind and task.
// Caller holds e.mu (or e is still detached).
func (r *replay) loadVersion(e *entry, v int) error {
	key := artifactKey(e.name, v)
	data, ok, err := r.get("artifact", key)
	if err != nil || !ok {
		return err
	}
	m, err := artifact.Decode(data)
	switch {
	case err != nil:
	case m.Version != v:
		err = fmt.Errorf("artifact claims version %d", m.Version)
	case e.kind != "" && (m.Task != e.task || m.Name != e.kind):
		err = fmt.Errorf("%s/%s does not match entry %s/%s", m.Name, m.Task, e.kind, e.task)
	}
	if err != nil {
		r.quarantine(key, data, err)
		return nil
	}
	e.task, e.kind = m.Task, m.Name
	e.versions[v-1] = m
	r.rep.Loaded++
	return nil
}

// sortedKeys returns m's keys in ascending order, so a pass visits
// models (and logs incidents) deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
