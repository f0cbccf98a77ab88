package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/artifact"
)

// This file is how a store is read back into a registry — the one
// implementation WarmBoot (a restart replaying its own store) and
// syncStore (a node converging on a store other nodes write) share:
// scan classifies the keys and parses live markers, install decodes,
// validates and installs artifact versions, and every blob that fails
// a check is quarantined the same way. The two callers differ only in
// how strict a pass is about store errors and in what they do with a
// live marker once the versions are in.

// replay is one pass over the store.
type replay struct {
	s *Service
	// op names the pass in store-error messages ("warm boot", "sync").
	op string
	// strict makes a failed Get abort the pass: a restarting node must
	// not come up on a partial registry. A sync pass instead tolerates
	// them — keys vanish between List and Get whenever another node
	// prunes retention, and anything else is logged and retried on the
	// next pass.
	strict bool
	// The caller's report: counters the pass bumps and its incident log.
	loaded, quarantined *int
	detailf             func(format string, args ...any)
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
		return nil, fmt.Errorf("service: %s: %w", r.op, err)
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

// get reads one blob, reporting ok == false for a read a non-strict
// pass tolerates.
func (r *replay) get(what, key string) (data []byte, ok bool, err error) {
	data, err = r.s.opts.Store.Get(key)
	switch {
	case err == nil:
		return data, true, nil
	case r.strict:
		return nil, false, fmt.Errorf("service: %s: %w", r.op, err)
	case !errors.Is(err, ErrNoKey):
		r.detailf("read %s %q: %v", what, key, err)
	}
	return nil, false, nil
}

// quarantine parks a damaged blob under the quarantine prefix, where
// later passes ignore it but it is preserved verbatim for forensics
// (best effort: on failure the blob stays put and the next pass
// retries).
func (r *replay) quarantine(key string, data []byte, why error) {
	*r.quarantined++
	r.detailf("quarantined %q: %v", key, why)
	store := r.s.opts.Store
	if err := store.Put(quarantinePrefix+key, data); err != nil {
		r.detailf("quarantine move of %q failed, blob left in place: %v", key, err)
		return
	}
	if err := store.Delete(key); err != nil {
		r.detailf("quarantine delete of original %q failed: %v", key, err)
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
		r.detailf("model %q has no intact versions; not registered", name)
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
	*r.loaded++
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
