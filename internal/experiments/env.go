// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6) on the synthetic SDSS-like and SQLShare-like
// workloads. Each TableN/FigureN function returns structured results
// plus a formatted text rendering matching the paper's rows/series.
package experiments

import (
	"math/rand"
	"sync"

	"repro/internal/core"
	"repro/internal/simdb"
	"repro/internal/synth"
	"repro/internal/workload"
)

// Setting is a problem setting from Definition 5.
type Setting int

// The three settings.
const (
	HomoInstance Setting = iota // SDSS, random split
	HomoSchema                  // SQLShare, random split
	HeteroSchema                // SQLShare, user split
)

// String names the setting as the paper does.
func (s Setting) String() string {
	switch s {
	case HomoInstance:
		return "Homogeneous Instance"
	case HomoSchema:
		return "Homogeneous Schema"
	case HeteroSchema:
		return "Heterogeneous Schema"
	default:
		return "?"
	}
}

// Scale controls dataset sizes and training budgets.
type Scale struct {
	SDSSSessions           int
	SQLShareUsers          int
	SQLShareQueriesPerUser int
	// Cfg is every model's training config. Its Workers (per
	// mini-batch, inside one model) composes with TrainAll's
	// across-model parallelism: total concurrency is roughly
	// #models x Workers, so on small machines prefer one or the other.
	Cfg  core.Config
	Seed int64
}

// DefaultScale is the full scaled-down reproduction (roughly 1/50 of
// the paper's data sizes; core.DefaultConfig says how training is
// scaled to match).
func DefaultScale() Scale {
	return Scale{
		SDSSSessions: 14000, SQLShareUsers: 60, SQLShareQueriesPerUser: 60,
		Cfg: core.DefaultConfig(), Seed: 1,
	}
}

// SmallScale is for quick runs and benchmarks.
func SmallScale() Scale {
	cfg := core.TinyConfig()
	cfg.Epochs = 1
	return Scale{
		SDSSSessions: 1400, SQLShareUsers: 16, SQLShareQueriesPerUser: 30,
		Cfg: cfg, Seed: 1,
	}
}

// Env generates and caches the datasets, splits, catalogs, and trained
// models shared across experiments.
type Env struct {
	Scale Scale

	SDSS      *workload.Workload
	SDSSSplit workload.Split

	SQLShare    *workload.Workload
	HomoSplit   workload.Split // SQLShare random split
	HeteroSplit workload.Split // SQLShare user split

	SDSSCatalog  *simdb.Catalog
	UserCatalogs map[string]*simdb.Catalog

	// The structural analyses behind Figures 3–8, each computed on first
	// use and kept for the Env's lifetime.
	sdssAnalysis, sqlShareAnalysis func() *workload.Analysis

	mu     sync.Mutex
	models map[modelKey]*modelEntry

	// trainFn is the model trainer, replaceable by tests (e.g. with a
	// blocking stub to exercise the single-flight cache); nil means
	// core.Train.
	trainFn func(name string, task core.Task, train []workload.Item, cfg core.Config) (*core.Model, error)
}

type modelKey struct {
	name    string
	task    core.Task
	setting Setting
}

// modelEntry is the single-flight cache slot for one (name, task,
// setting): the sync.Once guarantees the model trains exactly once
// even when concurrent TrainAll goroutines miss the cache together.
type modelEntry struct {
	once sync.Once
	m    *core.Model
	err  error
}

// NewEnv generates the workloads for a scale.
func NewEnv(scale Scale) *Env {
	sdssGen := synth.NewSDSS(synth.SDSSConfig{
		Sessions: scale.SDSSSessions, HitsPerSessionMax: 3, Seed: scale.Seed,
	})
	sqlGen := synth.NewSQLShare(synth.SQLShareConfig{
		Users: scale.SQLShareUsers, QueriesPerUser: scale.SQLShareQueriesPerUser,
		Seed: scale.Seed + 100,
	})
	env := &Env{
		Scale:       scale,
		SDSS:        sdssGen.Generate(),
		SQLShare:    sqlGen.Generate(),
		SDSSCatalog: sdssGen.Catalog(),
		models:      map[modelKey]*modelEntry{},
	}
	env.UserCatalogs = sqlGen.Catalogs()
	env.sdssAnalysis = sync.OnceValue(func() *workload.Analysis { return workload.Analyze(env.SDSS) })
	env.sqlShareAnalysis = sync.OnceValue(func() *workload.Analysis { return workload.Analyze(env.SQLShare) })
	env.SDSSSplit = workload.RandomSplit(env.SDSS.Items, 0.1, 0.1, rand.New(rand.NewSource(scale.Seed+7)))
	env.HomoSplit = workload.RandomSplit(env.SQLShare.Items, 0.1, 0.1, rand.New(rand.NewSource(scale.Seed+8)))
	env.HeteroSplit = workload.UserSplit(env.SQLShare.Items, 0.07, 0.1, rand.New(rand.NewSource(scale.Seed+9)))
	return env
}

// SplitFor returns the train/valid/test split for a setting.
func (e *Env) SplitFor(s Setting) workload.Split {
	switch s {
	case HomoInstance:
		return e.SDSSSplit
	case HomoSchema:
		return e.HomoSplit
	default:
		return e.HeteroSplit
	}
}

// Model trains (or returns the cached) named model for a task in a
// setting. Concurrent callers that miss the cache together train the
// model exactly once: the per-key entry is installed under the mutex
// and its sync.Once serializes the training, so no (name, task,
// setting) is ever trained twice or raced into the cache. Training
// errors are cached too (they are deterministic configuration errors).
func (e *Env) Model(name string, task core.Task, setting Setting) (*core.Model, error) {
	key := modelKey{name, task, setting}
	e.mu.Lock()
	ent, ok := e.models[key]
	if !ok {
		ent = &modelEntry{}
		e.models[key] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		train := e.trainFn
		if train == nil {
			train = core.Train
		}
		split := e.SplitFor(setting)
		ent.m, ent.err = train(name, task, split.Train, e.Scale.Cfg)
	})
	return ent.m, ent.err
}

// TrainAll trains the named models for a task/setting concurrently and
// returns them keyed by name.
func (e *Env) TrainAll(names []string, task core.Task, setting Setting) (map[string]*core.Model, error) {
	out := make(map[string]*core.Model, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			m, err := e.Model(name, task, setting)
			if err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			out[name] = m
			mu.Unlock()
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// OptEstimate computes the optimizer cost estimate for one item under
// its own database: SDSS items use the shared SDSS catalog, SQLShare
// items the owning user's catalog.
func (e *Env) OptEstimate(item workload.Item) float64 {
	cat := e.SDSSCatalog
	if item.User != "" {
		if c, ok := e.UserCatalogs[item.User]; ok {
			cat = c
		}
	}
	opt := &simdb.Optimizer{Catalog: cat}
	return opt.EstimateCost(item.Statement)
}

// OptEstimates maps OptEstimate over items.
func (e *Env) OptEstimates(items []workload.Item) []float64 {
	out := make([]float64, len(items))
	for i, item := range items {
		out[i] = e.OptEstimate(item)
	}
	return out
}
