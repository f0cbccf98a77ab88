package simdb

import (
	"math"
	"math/rand"
	"sync"

	"repro/internal/lazyrand"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
)

// ErrorClass is the paper's three-valued query error label
// (Section 4.1): success (0), non-severe error (1), or severe error
// (-1, rejected by the portal before reaching the database).
type ErrorClass int

// Error classes in the order used for classification targets.
const (
	Severe    ErrorClass = iota // invalid, rejected before execution
	Success                     // executed without error
	NonSevere                   // reached the database but failed
)

// String returns the workload label string of the class.
func (e ErrorClass) String() string {
	switch e {
	case Severe:
		return "severe"
	case Success:
		return "success"
	case NonSevere:
		return "non_severe"
	default:
		return "unknown"
	}
}

// NumErrorClasses is the cardinality of ErrorClass.
const NumErrorClasses = 3

// Result is the outcome of (simulated) query execution: the three
// ground-truth labels the paper extracts from the SDSS SqlLog, plus
// the elapsed wall-clock time (the SqlLog "elapsed" column; predicting
// it is listed as future work in Section 8).
type Result struct {
	Error      ErrorClass
	AnswerSize int64   // rows returned; -1 when the query did not run
	CPUTime    float64 // "busy" seconds; 0 when the query did not run
	Elapsed    float64 // wall-clock seconds including queueing and I/O
}

// Engine simulates query execution against a catalog. Answer sizes and
// CPU times include deterministic hash-seeded multiplicative noise so
// that labels are a learnable-but-noisy function of the query text —
// matching a real system where the same statement gets slightly
// different timings across runs but aggregated labels are stable.
//
// Execute is safe for concurrent use once the catalog is built: it
// only reads the engine and its catalog, so a label is a pure function
// of (engine, statement) whichever goroutine computes it.
type Engine struct {
	Catalog *Catalog
	// AnswerNoise and TimeNoise are log-normal sigma parameters.
	AnswerNoise float64
	TimeNoise   float64
	// FlakyRate is the probability a valid query still fails
	// non-severely (transient resource errors in the real system).
	FlakyRate float64
	// CostScale multiplies CPU times (0 means 1). Different services
	// run on very different hardware: the SQLShare deployment served
	// ad-hoc analytics from modest shared VMs, so its per-query CPU
	// times are orders of magnitude above an equivalent scan on the
	// SDSS servers.
	CostScale float64
}

// maxAnswerRows is the portal's result-set cap.
const maxAnswerRows = 1_000_000_000

// NewEngine creates an engine with the default noise configuration.
func NewEngine(cat *Catalog) *Engine {
	return &Engine{Catalog: cat, AnswerNoise: 0.45, TimeNoise: 0.35, FlakyRate: 0.008}
}

// Execute parses, analyzes, and "runs" a raw statement, producing its
// ground-truth labels.
func (en *Engine) Execute(query string) Result {
	stmts, err := sqlparse.Parse(query)
	if err != nil {
		// Rejected by the portal: the statement never reaches the
		// database (the paper's severe class), so it draws no noise.
		return Result{Error: Severe, AnswerSize: -1, CPUTime: 0}
	}
	rng := queryRand(query)
	defer queryRands.Put(rng)
	scale := en.CostScale
	if scale <= 0 {
		scale = 1
	}
	var total Result
	total.Error = Success
	for _, stmt := range stmts {
		r := en.executeStatement(stmt, rng)
		r.CPUTime *= scale
		if r.Error != Success {
			return Result{Error: r.Error, AnswerSize: -1, CPUTime: r.CPUTime, Elapsed: round3(r.CPUTime * 1.2)}
		}
		total.AnswerSize += r.AnswerSize
		total.CPUTime += r.CPUTime
	}
	if rng.Float64() < en.FlakyRate {
		cpu := round3(total.CPUTime * rng.Float64())
		return Result{Error: NonSevere, AnswerSize: -1, CPUTime: cpu, Elapsed: round3(cpu * 1.3)}
	}
	total.CPUTime = round3(total.CPUTime)
	// Wall-clock time adds I/O stall and queueing on top of CPU: a
	// multiplicative factor for I/O-bound phases plus a queue delay
	// drawn from the server's (hash-deterministic) load.
	ioFactor := 1.1 + 0.8*rng.Float64()
	queueDelay := 0.05 * lognoise(rng, 1.5)
	total.Elapsed = round3(total.CPUTime*ioFactor + queueDelay)
	return total
}

// executeStatement labels one parsed statement. Its names bind in the
// walk that estimates its plan (Catalog.plan); the draws from rng follow.
func (en *Engine) executeStatement(stmt sqlparse.Statement, rng *rand.Rand) Result {
	p, err := en.Catalog.plan(stmt)
	if err != nil {
		// Binding failure inside the DBMS: non-severe error. The server
		// still spent compile time.
		return Result{Error: NonSevere, AnswerSize: -1, CPUTime: round3(0.002 + 0.01*rng.Float64())}
	}
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		rows := p.Rows * lognoise(rng, en.AnswerNoise)
		cpu := (p.Cost + cpuStatementMin) * lognoise(rng, en.TimeNoise)
		ans := int64(math.Round(rows))
		if ans < 0 {
			ans = 0
		}
		// The access portals cap result sets (the SDSS workload's
		// maximum observed answer size is just under 1e9 rows).
		if ans > maxAnswerRows {
			ans = maxAnswerRows - int64(rng.Intn(1<<26))
		}
		if s.Top != nil && !s.Top.Percent && float64(ans) > s.Top.Count {
			ans = int64(s.Top.Count)
		}
		if isScalarAggregate(s) {
			ans = 1
		}
		return Result{Error: Success, AnswerSize: ans, CPUTime: cpu}
	case *sqlparse.ExecStmt:
		cpu := p.Cost * lognoise(rng, en.TimeNoise)
		rows := int64(math.Round(20 * lognoise(rng, 1.2)))
		return Result{Error: Success, AnswerSize: rows, CPUTime: cpu}
	case *sqlparse.InsertStmt:
		cpu := 0.01 + float64(s.Rows)*1e-5
		cpu += p.Cost + p.Rows*5e-8 // zero for INSERT … VALUES
		return Result{Error: Success, AnswerSize: 0, CPUTime: cpu * lognoise(rng, en.TimeNoise)}
	case *sqlparse.UpdateStmt, *sqlparse.DeleteStmt:
		// Writes to shared catalog tables are denied; user-space writes
		// succeed cheaply.
		if en.writesSharedTable(stmt) {
			return Result{Error: NonSevere, AnswerSize: -1, CPUTime: round3(0.001 + 0.005*rng.Float64())}
		}
		return Result{Error: Success, AnswerSize: 0, CPUTime: (0.01 + 0.2*rng.Float64()) * lognoise(rng, en.TimeNoise)}
	case *sqlparse.CreateStmt, *sqlparse.DropStmt, *sqlparse.AlterStmt:
		return Result{Error: Success, AnswerSize: 0, CPUTime: (0.02 + 0.1*rng.Float64()) * lognoise(rng, en.TimeNoise)}
	default:
		return Result{Error: Success, AnswerSize: 0, CPUTime: cpuStatementMin}
	}
}

// writesSharedTable reports whether an UPDATE/DELETE targets a table in
// the shared catalog (which end users cannot modify).
func (en *Engine) writesSharedTable(stmt sqlparse.Statement) bool {
	var name *sqlparse.TableName
	switch s := stmt.(type) {
	case *sqlparse.UpdateStmt:
		name = s.Table
	case *sqlparse.DeleteStmt:
		name = s.Table
	default:
		return false
	}
	if name == nil || isUserSpace(name) {
		return false
	}
	return en.Catalog.Table(name.Parts[len(name.Parts)-1]) != nil
}

// isScalarAggregate reports whether a SELECT has aggregates but no
// GROUP BY, meaning it returns exactly one row.
func isScalarAggregate(sel *sqlparse.SelectStmt) bool {
	if len(sel.GroupBy) > 0 || len(sel.Columns) == 0 {
		return false
	}
	hasAgg := false
	for _, item := range sel.Columns {
		if item.Star {
			return false
		}
		if fc, ok := item.Expr.(*sqlparse.FuncCall); ok && sqllex.IsAggregateFunction(fc.BareName) {
			hasAgg = true
			continue
		}
		return false
	}
	return hasAgg
}

// Optimizer exposes the analytic cost estimate a query optimizer would
// produce: uniformity assumptions, default selectivities, and no
// accounting for CPU-bound function evaluation. The paper's `opt`
// baseline fits a linear regression from this estimate to CPU time and
// finds it transfers poorly (Table 5); the estimate here mis-models the
// simulator in the same qualitative ways.
type Optimizer struct {
	Catalog *Catalog
}

// EstimateCost returns the optimizer's cost estimate for a statement,
// or 0 when the statement does not parse or is not a SELECT.
func (o *Optimizer) EstimateCost(query string) float64 {
	stmts, err := sqlparse.Parse(query)
	if err != nil {
		return 0
	}
	est := &estimator{cat: o.Catalog, Uniform: true}
	total := 0.0
	for _, stmt := range stmts {
		if sel, ok := stmt.(*sqlparse.SelectStmt); ok {
			p := est.estimateSelect(sel, nil)
			// I/O-dominated costing: the optimizer charges for pages
			// read, approximated from rows examined.
			total += p.Cost + p.Rows*1e-7
		}
	}
	return total
}

// queryRands holds math/rand streams over lazily seeded sources, so a
// statement's stream allocates nothing and its seed computes only the
// register words its few draws read.
var queryRands = sync.Pool{New: func() any { return rand.New(lazyrand.New(0)) }}

// queryRand returns a PRNG seeded by the 64-bit FNV-1a hash of the
// query text, making all simulated noise deterministic per statement:
// the stream rand.NewSource would give that seed. Put it back in
// queryRands when done.
func queryRand(query string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(query); i++ {
		h ^= uint64(query[i])
		h *= 1099511628211
	}
	rng := queryRands.Get().(*rand.Rand)
	rng.Seed(int64(h))
	return rng
}

// lognoise draws a multiplicative log-normal noise factor e^{sigma*Z}.
func lognoise(rng *rand.Rand, sigma float64) float64 {
	return math.Exp(sigma * rng.NormFloat64())
}

func round3(v float64) float64 {
	return math.Round(v*1000) / 1000
}
