package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/synth"
	"repro/internal/workload"
)

// inputs is everything a run feeds the program, generated from the
// workload seed alone: the same seed gives the same inputs, and the
// program sees nothing else of the seed.
type inputs struct {
	Seed int64 `json:"seed"`
	// Pool holds at least poolMin distinct labeled statements from a
	// synth run the models never trained on, in seeded order. Closed
	// loops walk it without repetition (wrapping at the end).
	Pool []workload.Item `json:"pool"`
	// Batches is the pool cut into wire-batch-lstm requests.
	Batches [][]int32 `json:"batches"`
	// Arrivals is the open-loop schedule: a warm-up step, then one
	// step per rate in openRates.
	Arrivals []arrival `json:"arrivals"`
	Steps    []step    `json:"steps"`
	// Probes are the instants at which the open-loop generator stops to
	// read the yardstick; no arrival is due for ProbeGapNs after each.
	// They cut the steps past the warm-up into the window's slices:
	// slice k runs from Probes[k]+ProbeGapNs to Probes[k+1].
	Probes     []int64 `json:"probes_ns"`
	ProbeGapNs int64   `json:"probe_gap_ns"`

	batchText [][]string // Batches as statements
}

// arrival is one open-loop request: when it is due, counted from the
// start of the schedule, and which pool statement it sends.
type arrival struct {
	DueNs int64 `json:"due_ns"`
	Stmt  int32 `json:"stmt"`
}

// step is one fixed-rate stretch of the open-loop schedule; its
// arrivals are Arrivals[First:End] and its slices, of the window's,
// FirstSlice to EndSlice.
type step struct {
	Name       string  `json:"name"`
	Rate       float64 `json:"rate_per_s"`
	StartNs    int64   `json:"start_ns"`
	EndNs      int64   `json:"end_ns"`
	First      int     `json:"first"`
	End        int     `json:"end"`
	FirstSlice int     `json:"first_slice"`
	EndSlice   int     `json:"end_slice"`
}

// poolSeed maps the workload seed to a synth seed that is never the
// training data's.
func poolSeed(seed int64) int64 {
	s := seed + 1_000_003
	if s == trainSeed {
		s = -trainSeed
	}
	return s
}

// newInputs generates the inputs for one seed. exclude holds the
// training statements; the synthetic generator shares a few trivial
// statements across seeds, and those are dropped so the pool is unseen.
// warm, window and probe size the open-loop schedule.
func newInputs(seed int64, exclude map[string]bool, warm, window, probe time.Duration) (*inputs, error) {
	gen := synth.NewSDSS(synth.SDSSConfig{Sessions: poolSessions, HitsPerSessionMax: 3, Seed: poolSeed(seed)})
	in := &inputs{Seed: seed}
	for _, it := range gen.Generate().Items {
		if !exclude[it.Statement] {
			in.Pool = append(in.Pool, it)
		}
	}
	if len(in.Pool) < poolMin {
		return nil, fmt.Errorf("seed %d: pool has %d distinct unseen statements, need %d", seed, len(in.Pool), poolMin)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(in.Pool), func(i, j int) { in.Pool[i], in.Pool[j] = in.Pool[j], in.Pool[i] })

	for b := 0; (b+1)*batchSize <= len(in.Pool); b++ {
		batch := make([]int32, batchSize)
		for k := range batch {
			batch[k] = int32(b*batchSize + k)
		}
		in.Batches = append(in.Batches, batch)
		in.batchText = append(in.batchText, workload.Statements(in.Pool[b*batchSize:(b+1)*batchSize]))
	}

	// Open loop: exponential gaps at each step's rate, Zipf-distributed
	// statement indices over the first zipfPool of the pool. Every step
	// past the warm-up is cut into its slices, each led by a probe and
	// its gap, and one more probe closes the schedule; the gap leaves the
	// yardstick a quarter of its time to overrun before the next arrival
	// is due.
	in.ProbeGapNs = int64(probe + probe/4)
	zipf := rand.NewZipf(rng, zipfS, 1, zipfPool-1)
	at := int64(0)
	add := func(name string, rate float64, length int64, pieces int) {
		st := step{Name: name, Rate: rate, StartNs: at, EndNs: at + length, First: len(in.Arrivals), FirstSlice: len(in.Probes)}
		gap := in.ProbeGapNs
		if pieces == 0 {
			pieces, gap = 1, 0 // the warm-up: one stretch, no probe
		} else {
			st.EndSlice = st.FirstSlice + pieces
		}
		for k := 0; k < pieces; k++ {
			from, to := at+length*int64(k)/int64(pieces), at+length*int64(k+1)/int64(pieces)
			if gap > 0 {
				in.Probes = append(in.Probes, from)
			}
			for t := float64(from + gap); ; {
				t += rng.ExpFloat64() / rate * 1e9
				if int64(t) >= to {
					break
				}
				in.Arrivals = append(in.Arrivals, arrival{DueNs: int64(t), Stmt: int32(zipf.Uint64())})
			}
		}
		st.End = len(in.Arrivals)
		in.Steps = append(in.Steps, st)
		at = st.EndNs
	}
	add("warmup", openRates[gateStep-1], int64(warm), 0)
	for i, r := range openRates {
		add(fmt.Sprintf("r%d", i+1), r, int64(window)*int64(stepSlices[i])/slices, stepSlices[i])
	}
	in.Probes = append(in.Probes, at)
	return in, nil
}

// stmt returns the pool statement at position i, wrapping.
func (in *inputs) stmt(i int) string { return in.Pool[i%len(in.Pool)].Statement }

// batch returns the statements of batch b, wrapping.
func (in *inputs) batch(b int) []string { return in.batchText[b%len(in.batchText)] }

// shard is the train workload's examples.
func (in *inputs) shard() []workload.Item { return in.Pool[:shardSize] }

// hash is the SHA-256 of the inputs in a fixed binary layout.
func (in *inputs) hash() string {
	h := sha256.New()
	var b [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	num(uint64(len(in.Pool)))
	for _, it := range in.Pool {
		num(uint64(len(it.Statement)))
		h.Write([]byte(it.Statement))
		num(uint64(it.ErrorClass))
		num(math.Float64bits(it.CPUTime))
	}
	for _, batch := range in.Batches {
		for _, i := range batch {
			num(uint64(i))
		}
	}
	for _, a := range in.Arrivals {
		num(uint64(a.DueNs))
		num(uint64(a.Stmt))
	}
	for _, p := range in.Probes {
		num(uint64(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// dump writes the inputs and their hash as JSON.
func (in *inputs) dump(path string) error {
	data, err := json.Marshal(struct {
		SHA256 string `json:"sha256"`
		*inputs
	}{in.hash(), in})
	if err != nil {
		return fmt.Errorf("dump workload: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
