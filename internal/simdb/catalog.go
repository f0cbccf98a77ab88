// Package simdb is the execution-environment substitute for the paper's
// database instances. The paper obtains ground-truth labels (error
// class, answer size, CPU time) by running queries against SDSS's
// Catalog Archive Server and SQLShare's backend; we cannot access
// those, so this package simulates execution: a semantic analyzer
// produces error labels, a cardinality model produces answer sizes, and
// a cost model produces CPU times. All three are deterministic
// functions of (query, catalog) plus hash-seeded noise, which gives the
// learnable-but-noisy text-to-label relationship the prediction models
// need.
//
// The package also implements an intentionally imprecise analytic
// Optimizer mirroring the paper's `opt` baseline: a query-optimizer
// cost model with uniformity assumptions that ignores CPU-bound
// function evaluation, which is why it transfers poorly (Section 6.2.2).
package simdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Column describes one column's statistics.
type Column struct {
	Name     string
	Distinct int64   // number of distinct values
	Min, Max float64 // numeric value range (0,0 for non-numeric)
	NullFrac float64 // fraction of NULL values
}

// Table describes a base table or view.
type Table struct {
	Name    string
	Rows    int64
	Columns []Column

	byName map[string]*Column
}

// Column returns the named column, or nil. It only reads the index
// Catalog.AddTable built, so concurrent lookups are safe.
func (t *Table) Column(name string) *Column {
	return t.byName[strings.ToLower(name)]
}

// Function describes a callable function with its per-call CPU cost in
// seconds. Expensive row-wise functions are the root cause of the
// paper's Figure 1b inefficiency example.
type Function struct {
	Name        string
	CostPerCall float64
	Aggregate   bool
}

// Catalog is the schema plus statistics of one database instance.
type Catalog struct {
	Name      string
	Tables    map[string]*Table
	Functions map[string]*Function
	// Procedures callable via EXEC.
	Procedures map[string]*Function
}

// Table resolves a table name case-insensitively, ignoring databasename
// and schema qualifiers (db.schema.table).
func (c *Catalog) Table(name string) *Table {
	return c.Tables[strings.ToLower(name)]
}

// Function resolves a function name case-insensitively by its bare name.
func (c *Catalog) Function(name string) *Function {
	return c.Functions[strings.ToLower(name)]
}

// Procedure resolves a stored-procedure name.
func (c *Catalog) Procedure(name string) *Function {
	return c.Procedures[strings.ToLower(name)]
}

// AddTable registers a table and indexes its columns by name; the
// table's Columns must not change afterwards.
func (c *Catalog) AddTable(t *Table) {
	t.byName = make(map[string]*Column, len(t.Columns))
	for i := range t.Columns {
		t.byName[strings.ToLower(t.Columns[i].Name)] = &t.Columns[i]
	}
	c.Tables[strings.ToLower(t.Name)] = t
}

// AddFunction registers a function.
func (c *Catalog) AddFunction(f *Function) {
	c.Functions[strings.ToLower(f.Name)] = f
}

// AddProcedure registers a stored procedure.
func (c *Catalog) AddProcedure(f *Function) {
	c.Procedures[strings.ToLower(f.Name)] = f
}

func newCatalog(name string) *Catalog {
	return &Catalog{
		Name:       name,
		Tables:     map[string]*Table{},
		Functions:  map[string]*Function{},
		Procedures: map[string]*Function{},
	}
}

// NewSDSSCatalog builds the synthetic SDSS-like astronomy catalog. The
// table set, the row-count magnitudes (PhotoObj ~ 8e8 rows in DR7), and
// the dbo.f* function library follow the published SDSS CAS schema
// closely enough that generated queries look like real SkyServer
// traffic.
func NewSDSSCatalog() *Catalog {
	c := newCatalog("sdss")

	photoCols := []Column{
		{Name: "objid", Distinct: 794_328_715, Min: 1, Max: 9.3e18},
		{Name: "ra", Distinct: 50_000_000, Min: 0, Max: 360},
		{Name: "dec", Distinct: 50_000_000, Min: -90, Max: 90},
		{Name: "type", Distinct: 7, Min: 0, Max: 6},
		{Name: "flags", Distinct: 100_000, Min: 0, Max: 9.2e18},
		{Name: "status", Distinct: 64, Min: 0, Max: 1e6},
		{Name: "mode", Distinct: 3, Min: 1, Max: 3},
		{Name: "u", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "g", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "r", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "i", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "z", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "petror90_r", Distinct: 200_000, Min: 0, Max: 100},
		{Name: "psfmag_r", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "psfmagerr_u", Distinct: 100_000, Min: 0, Max: 5},
		{Name: "psfmagerr_g", Distinct: 100_000, Min: 0, Max: 5},
		{Name: "modelmag_u", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "modelmag_g", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "flags_g", Distinct: 50_000, Min: 0, Max: 9.2e18},
		{Name: "extinction_r", Distinct: 50_000, Min: 0, Max: 2},
		{Name: "rowc", Distinct: 1489, Min: 0, Max: 1489},
		{Name: "colc", Distinct: 2048, Min: 0, Max: 2048},
		{Name: "run", Distinct: 1000, Min: 94, Max: 8162},
		{Name: "rerun", Distinct: 50, Min: 0, Max: 301},
		{Name: "camcol", Distinct: 6, Min: 1, Max: 6},
		{Name: "field", Distinct: 1000, Min: 11, Max: 1000},
		{Name: "htmid", Distinct: 700_000_000, Min: 0, Max: 1.8e16},
	}

	c.AddTable(&Table{Name: "PhotoObj", Rows: 794_328_715, Columns: photoCols})
	c.AddTable(&Table{Name: "PhotoObjAll", Rows: 1_281_364_002, Columns: photoCols})
	c.AddTable(&Table{Name: "PhotoPrimary", Rows: 582_000_000, Columns: photoCols})
	c.AddTable(&Table{Name: "PhotoTag", Rows: 794_328_715, Columns: photoCols})
	c.AddTable(&Table{Name: "Galaxy", Rows: 348_000_000, Columns: photoCols})
	c.AddTable(&Table{Name: "Star", Rows: 260_000_000, Columns: photoCols})

	specCols := []Column{
		{Name: "specobjid", Distinct: 4_311_571, Min: 1, Max: 9.3e18},
		{Name: "bestobjid", Distinct: 4_311_571, Min: 1, Max: 9.3e18},
		{Name: "objid", Distinct: 4_311_571, Min: 1, Max: 9.3e18},
		{Name: "ra", Distinct: 4_000_000, Min: 0, Max: 360},
		{Name: "dec", Distinct: 4_000_000, Min: -90, Max: 90},
		{Name: "z", Distinct: 2_000_000, Min: -0.01, Max: 7},
		{Name: "zerr", Distinct: 500_000, Min: 0, Max: 1},
		{Name: "zconf", Distinct: 1000, Min: 0, Max: 1},
		{Name: "specclass", Distinct: 6, Min: 0, Max: 5},
		{Name: "plate", Distinct: 2874, Min: 266, Max: 3000},
		{Name: "mjd", Distinct: 2000, Min: 51578, Max: 55000},
		{Name: "fiberid", Distinct: 640, Min: 1, Max: 640},
		{Name: "modelmag_u", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "modelmag_g", Distinct: 300_000, Min: 10, Max: 30},
		{Name: "flags_g", Distinct: 50_000, Min: 0, Max: 9.2e18},
		{Name: "psfmagerr_u", Distinct: 100_000, Min: 0, Max: 5},
		{Name: "psfmagerr_g", Distinct: 100_000, Min: 0, Max: 5},
	}
	c.AddTable(&Table{Name: "SpecObj", Rows: 4_311_571, Columns: specCols})
	c.AddTable(&Table{Name: "SpecObjAll", Rows: 5_135_742, Columns: specCols})
	c.AddTable(&Table{Name: "SpecPhoto", Rows: 3_900_000, Columns: append(append([]Column{}, specCols...), photoCols[1:12]...)})
	c.AddTable(&Table{Name: "SpecPhotoAll", Rows: 4_500_000, Columns: append(append([]Column{}, specCols...), photoCols[1:12]...)})

	c.AddTable(&Table{Name: "Field", Rows: 900_000, Columns: []Column{
		{Name: "fieldid", Distinct: 900_000, Min: 1, Max: 9e17},
		{Name: "run", Distinct: 1000, Min: 94, Max: 8162},
		{Name: "camcol", Distinct: 6, Min: 1, Max: 6},
		{Name: "field", Distinct: 1000, Min: 11, Max: 1000},
		{Name: "ra", Distinct: 800_000, Min: 0, Max: 360},
		{Name: "dec", Distinct: 800_000, Min: -90, Max: 90},
	}})

	c.AddTable(&Table{Name: "Neighbors", Rows: 2_600_000_000, Columns: []Column{
		{Name: "objid", Distinct: 500_000_000, Min: 1, Max: 9.3e18},
		{Name: "neighborobjid", Distinct: 500_000_000, Min: 1, Max: 9.3e18},
		{Name: "distance", Distinct: 100_000, Min: 0, Max: 0.5},
		{Name: "type", Distinct: 7, Min: 0, Max: 6},
		{Name: "neighbortype", Distinct: 7, Min: 0, Max: 6},
		{Name: "mode", Distinct: 3, Min: 1, Max: 3},
	}})

	// CasJobs service tables (the paper's Q2 touches Jobs/Servers/...).
	c.AddTable(&Table{Name: "Jobs", Rows: 120_000, Columns: []Column{
		{Name: "jobid", Distinct: 120_000, Min: 1, Max: 120000},
		{Name: "target", Distinct: 40, Min: 0, Max: 0},
		{Name: "estimate", Distinct: 500, Min: 0, Max: 10000},
		{Name: "queue", Distinct: 8, Min: 1, Max: 8},
		{Name: "outputtype", Distinct: 6, Min: 0, Max: 0},
		{Name: "uid", Distinct: 9000, Min: 1, Max: 9000},
		{Name: "status", Distinct: 7, Min: 0, Max: 6},
	}})
	c.AddTable(&Table{Name: "Users", Rows: 9_000, Columns: []Column{
		{Name: "id", Distinct: 9000, Min: 1, Max: 9000},
		{Name: "webname", Distinct: 9000, Min: 0, Max: 0},
	}})
	c.AddTable(&Table{Name: "Status", Rows: 7, Columns: []Column{
		{Name: "id", Distinct: 7, Min: 0, Max: 6},
		{Name: "name", Distinct: 7, Min: 0, Max: 0},
	}})
	c.AddTable(&Table{Name: "Servers", Rows: 40, Columns: []Column{
		{Name: "name", Distinct: 40, Min: 0, Max: 0},
		{Name: "target", Distinct: 12, Min: 0, Max: 0},
		{Name: "queue", Distinct: 8, Min: 1, Max: 8},
	}})

	// The SDSS dbo.f* function library (a representative subset of the
	// 467 functions). Costs are seconds per call.
	for _, f := range []Function{
		{Name: "fPhotoFlags", CostPerCall: 4e-6},
		{Name: "fPhotoStatus", CostPerCall: 4e-6},
		{Name: "fPhotoType", CostPerCall: 3e-6},
		{Name: "fSpecClass", CostPerCall: 3e-6},
		{Name: "fGetNearbyObjEq", CostPerCall: 2e-2},
		{Name: "fGetNearestObjEq", CostPerCall: 1.5e-2},
		{Name: "fGetObjFromRect", CostPerCall: 4e-2},
		{Name: "fDistanceArcMinEq", CostPerCall: 8e-6},
		{Name: "fGetURLExpid", CostPerCall: 6e-6},
		{Name: "fGetUrlFitsCFrame", CostPerCall: 6e-6},
		{Name: "fHtmXYZ", CostPerCall: 5e-6},
		{Name: "fObjidFromSDSS", CostPerCall: 4e-6},
		{Name: "fMJDToGMT", CostPerCall: 3e-6},
		{Name: "fMagToFlux", CostPerCall: 2e-6},
		{Name: "fStripeOfRun", CostPerCall: 2e-6},
		{Name: "fTileFromTiling", CostPerCall: 2e-6},
		// SQL built-in scalar functions.
		{Name: "abs", CostPerCall: 2e-8},
		{Name: "sqrt", CostPerCall: 4e-8},
		{Name: "power", CostPerCall: 6e-8},
		{Name: "log", CostPerCall: 5e-8},
		{Name: "log10", CostPerCall: 5e-8},
		{Name: "exp", CostPerCall: 5e-8},
		{Name: "sin", CostPerCall: 5e-8},
		{Name: "cos", CostPerCall: 5e-8},
		{Name: "tan", CostPerCall: 5e-8},
		{Name: "atan2", CostPerCall: 6e-8},
		{Name: "radians", CostPerCall: 3e-8},
		{Name: "degrees", CostPerCall: 3e-8},
		{Name: "round", CostPerCall: 3e-8},
		{Name: "floor", CostPerCall: 2e-8},
		{Name: "ceiling", CostPerCall: 2e-8},
		{Name: "str", CostPerCall: 8e-8},
		{Name: "substring", CostPerCall: 8e-8},
		{Name: "len", CostPerCall: 3e-8},
		{Name: "upper", CostPerCall: 5e-8},
		{Name: "lower", CostPerCall: 5e-8},
		{Name: "isnull", CostPerCall: 2e-8},
		{Name: "coalesce", CostPerCall: 3e-8},
		{Name: "datediff", CostPerCall: 6e-8},
		{Name: "getdate", CostPerCall: 5e-8},
		{Name: "count", CostPerCall: 1e-8, Aggregate: true},
		{Name: "sum", CostPerCall: 1e-8, Aggregate: true},
		{Name: "avg", CostPerCall: 1.5e-8, Aggregate: true},
		{Name: "min", CostPerCall: 1e-8, Aggregate: true},
		{Name: "max", CostPerCall: 1e-8, Aggregate: true},
		{Name: "stdev", CostPerCall: 2e-8, Aggregate: true},
		{Name: "var", CostPerCall: 2e-8, Aggregate: true},
	} {
		fn := f
		c.AddFunction(&fn)
	}

	for _, p := range []Function{
		{Name: "spGetNeighbors", CostPerCall: 0.8},
		{Name: "spGetMatch", CostPerCall: 0.5},
		{Name: "spExecuteSQL", CostPerCall: 0.3},
		{Name: "sp_help", CostPerCall: 0.05},
		{Name: "sp_tables", CostPerCall: 0.04},
		{Name: "sp_columns", CostPerCall: 0.04},
	} {
		pr := p
		c.AddProcedure(&pr)
	}
	return c
}

// sqlShareAdjectives/nouns give user tables SQLShare's ad-hoc flavour
// ("uniprot_go_annotations", "sensor_readings_clean", ...).
var sqlShareNouns = []string{
	"readings", "annotations", "samples", "genes", "proteins", "taxa",
	"measurements", "counts", "events", "records", "metadata", "summary",
	"results", "stations", "profiles", "sequences", "abundance", "sites",
	"observations", "trials", "cruise", "plates", "peptides", "spectra",
}

var sqlSharePrefixes = []string{
	"uniprot", "sensor", "ocean", "lake", "census", "survey", "clinical",
	"weather", "traffic", "genome", "microbe", "coral", "seaflow", "army",
	"billing", "sales", "hydro", "air", "soil", "field", "lab", "qc",
}

var sqlShareColumns = []string{
	"id", "name", "value", "time", "date", "lat", "lon", "depth", "temp",
	"salinity", "count", "score", "pvalue", "category", "label", "group_id",
	"station", "sample_id", "gene", "protein", "taxon", "abundance",
	"quality", "flag", "source", "run_id", "batch", "concentration",
}

// NewSQLShareCatalog builds a per-user catalog of uploaded datasets.
// Each user owns a handful of small-to-medium tables with their own
// naming conventions: this is what makes word-level vocabularies
// explode across users (the Heterogeneous Schema pathology).
func NewSQLShareCatalog(user string, rng *rand.Rand) *Catalog {
	c := newCatalog("sqlshare:" + user)
	numTables := 2 + rng.Intn(6)
	for i := 0; i < numTables; i++ {
		prefix := sqlSharePrefixes[rng.Intn(len(sqlSharePrefixes))]
		noun := sqlShareNouns[rng.Intn(len(sqlShareNouns))]
		name := fmt.Sprintf("%s_%s_%s", user, prefix, noun)
		if rng.Intn(3) == 0 {
			name = fmt.Sprintf("%s_%s", user, noun)
		}
		rows := int64(500 * (1 << uint(rng.Intn(18)))) // 500 .. ~131M
		numCols := 3 + rng.Intn(10)
		cols := make([]Column, 0, numCols)
		seen := map[string]bool{}
		for len(cols) < numCols {
			base := sqlShareColumns[rng.Intn(len(sqlShareColumns))]
			if seen[base] {
				continue
			}
			seen[base] = true
			distinct := int64(1 + rng.Intn(int(rows)))
			cols = append(cols, Column{
				Name:     base,
				Distinct: distinct,
				Min:      0,
				Max:      float64(10 * (1 + rng.Intn(1000))),
				NullFrac: float64(rng.Intn(10)) / 100,
			})
		}
		c.AddTable(&Table{Name: name, Rows: rows, Columns: cols})
	}
	// SQLShare exposes standard SQL built-ins only.
	for _, f := range []Function{
		{Name: "count", CostPerCall: 1e-8, Aggregate: true},
		{Name: "sum", CostPerCall: 1e-8, Aggregate: true},
		{Name: "avg", CostPerCall: 1.5e-8, Aggregate: true},
		{Name: "min", CostPerCall: 1e-8, Aggregate: true},
		{Name: "max", CostPerCall: 1e-8, Aggregate: true},
		{Name: "stdev", CostPerCall: 2e-8, Aggregate: true},
		{Name: "abs", CostPerCall: 2e-8},
		{Name: "round", CostPerCall: 3e-8},
		{Name: "upper", CostPerCall: 5e-8},
		{Name: "lower", CostPerCall: 5e-8},
		{Name: "substring", CostPerCall: 8e-8},
		{Name: "len", CostPerCall: 3e-8},
		{Name: "cast", CostPerCall: 4e-8},
		{Name: "coalesce", CostPerCall: 3e-8},
	} {
		fn := f
		c.AddFunction(&fn)
	}
	return c
}

// TableNames returns the catalog's table names in sorted order.
func (c *Catalog) TableNames() []string {
	names := make([]string, 0, len(c.Tables))
	for _, t := range c.Tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}
