package faults

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// memBlob is a minimal in-memory Blob for wrapper tests (mirrors
// service.MemStore without importing it).
type memBlob struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMemBlob() *memBlob { return &memBlob{m: make(map[string][]byte)} }

func (b *memBlob) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[key] = append([]byte(nil), data...)
	return nil
}

func (b *memBlob) Get(key string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	data, ok := b.m[key]
	if !ok {
		return nil, errors.New("no key")
	}
	return append([]byte(nil), data...), nil
}

func (b *memBlob) List() ([]string, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]string, 0, len(b.m))
	for k := range b.m {
		keys = append(keys, k)
	}
	return keys, nil
}

func (b *memBlob) Delete(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.m, key)
	return nil
}

// TestScheduleWindows pins the deterministic schedules: Count caps
// firings, prefixes and ops select targets.
func TestScheduleWindows(t *testing.T) {
	inj := NewInjector(1)
	inj.Add(Rule{Op: OpPut, KeyPrefix: "v", Count: 2})
	st := NewStore(newMemBlob(), inj)

	if err := st.Put("live/m", nil); err != nil {
		t.Fatalf("non-matching prefix failed: %v", err)
	}
	if _, err := st.List(); err != nil {
		t.Fatalf("List must not match a Put rule: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := st.Put("v1/m", []byte("a")); !errors.Is(err, ErrInjected) {
			t.Fatalf("windowed Put %d err = %v, want ErrInjected", i, err)
		}
	}
	if err := st.Put("v1/m", []byte("b")); err != nil {
		t.Fatalf("rule fired past its Count cap: %v", err)
	}
	if data, err := st.Get("v1/m"); err != nil || string(data) != "b" {
		t.Fatalf("Get after exhausted schedule = %q, %v", data, err)
	}
	if ops, injected := inj.Stats(); injected != 2 || ops == 0 {
		t.Fatalf("Stats() = %d ops, %d injected, want 2 injected", ops, injected)
	}
}

// TestDeterministicSeed is the injector reproducibility contract: two
// injectors with the same seed and the same rate-based schedule,
// driven through the same operation sequence, must fire identically —
// a failing chaos run replays exactly from its seed.
func TestDeterministicSeed(t *testing.T) {
	run := func(seed int64) []Event {
		inj := NewInjector(seed)
		inj.Add(Rule{Op: OpGet, Rate: 0.3})
		inj.Add(Rule{Op: OpPut, Rate: 0.5, KeyPrefix: "v"})
		st := NewStore(newMemBlob(), inj)
		for i := 0; i < 200; i++ {
			key := fmt.Sprintf("v%d/m", i%7)
			st.Put(key, []byte{byte(i)})
			st.Get(key)
		}
		return inj.Events()
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("rate schedule injected nothing over 400 ops")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %d vs %d events", len(a), len(b))
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious PRNG wiring)")
	}
}

// TestPartialWrite: a Partial rule must tear the payload on the inner
// store (half-length, flipped last byte) while failing the caller.
func TestPartialWrite(t *testing.T) {
	inner := newMemBlob()
	inj := NewInjector(1)
	inj.Add(Rule{Op: OpPut, Partial: true, Count: 1})
	st := NewStore(inner, inj)

	payload := []byte("0123456789")
	if err := st.Put("v1/m", payload); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn Put err = %v, want ErrInjected", err)
	}
	torn, err := inner.Get("v1/m")
	if err != nil {
		t.Fatalf("inner store has no torn blob: %v", err)
	}
	if len(torn) != 5 || torn[4] == '4' {
		t.Fatalf("torn blob = %q, want 5 bytes with flipped tail", torn)
	}
	if err := st.Put("v1/m", payload); err != nil {
		t.Fatalf("Put after the torn write: %v", err)
	}
	if data, _ := st.Get("v1/m"); string(data) != string(payload) {
		t.Fatalf("recovered blob = %q", data)
	}
}

// TestCorrupt: the damage helper flips one byte in place.
func TestCorrupt(t *testing.T) {
	st := newMemBlob()
	orig := []byte("abcdefgh")
	st.Put("k", orig)
	if err := Corrupt(st, "k"); err != nil {
		t.Fatal(err)
	}
	data, _ := st.Get("k")
	if len(data) != len(orig) || data[len(data)/2] == orig[len(orig)/2] {
		t.Fatalf("Corrupt left %q unchanged", data)
	}
}
