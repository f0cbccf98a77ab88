package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/simdb"
	"repro/internal/workload"
)

// SQLShareConfig controls the SQLShare-like workload generator.
type SQLShareConfig struct {
	Users          int
	QueriesPerUser int // mean; actual counts vary per user
	Seed           int64
}

// SQLShareGenerator produces a SQLShare-like workload: per-user
// uploaded schemas and short-term ad-hoc analytics over them.
type SQLShareGenerator struct {
	cfg      SQLShareConfig
	rng      *rand.Rand
	catalogs map[string]*simdb.Catalog
}

// NewSQLShare creates a generator.
func NewSQLShare(cfg SQLShareConfig) *SQLShareGenerator {
	if cfg.Users <= 0 {
		cfg.Users = 10
	}
	if cfg.QueriesPerUser <= 0 {
		cfg.QueriesPerUser = 20
	}
	return &SQLShareGenerator{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		catalogs: map[string]*simdb.Catalog{},
	}
}

// Catalogs returns the per-user catalogs created by Generate, keyed by
// user id. The opt baseline estimates costs against the owning user's
// own schema.
func (g *SQLShareGenerator) Catalogs() map[string]*simdb.Catalog { return g.catalogs }

// Generate returns the extracted SQLShare-like workload. Each item
// carries its owning user (for the Heterogeneous Schema user split).
// Statements are labelled as they are drawn, as in SDSSGenerator.GenerateLog.
func (g *SQLShareGenerator) Generate() *workload.Workload {
	lab := newLabeller()
	var sampled []workload.RawEntry
	var slots []int
	session := 0
	for u := 0; u < g.cfg.Users; u++ {
		user := fmt.Sprintf("u%03d", u)
		userRng := rand.New(rand.NewSource(g.cfg.Seed + int64(u)*977))
		cat := simdb.NewSQLShareCatalog(user, userRng)
		g.catalogs[user] = cat
		engine := simdb.NewEngine(cat)
		// The SQLShare service runs on modest shared VMs: per-query CPU
		// times are far above SDSS's for comparable work (Figure 6e:
		// median 16 s, max 4.3e6 s), and vary by a further order of
		// magnitude across tenants (VM generation, contention). The
		// analytic optimizer cannot see this per-tenant factor — a key
		// reason the paper's opt baseline transfers poorly (Table 5) —
		// while text models can absorb it per user from table-name
		// tokens in the Homogeneous Schema setting.
		engine.CostScale = 400 * math.Pow(4, userRng.Float64()*2-1)
		tables := cat.TableNames()
		n := g.cfg.QueriesPerUser/2 + userRng.Intn(g.cfg.QueriesPerUser+1)
		b := &queryBuilder{rng: userRng}
		for q := 0; q < n; q++ {
			stmt := g.userQuery(b, cat, tables)
			sampled = append(sampled, workload.RawEntry{
				Statement: stmt,
				SessionID: session,
				Class:     workload.Program, // not used for SQLShare problems
				User:      user,
			})
			// The user's catalog and CostScale are final by now.
			slots = append(slots, lab.add(engine, stmt))
			session++
		}
	}
	labels := lab.results()
	for i, s := range slots {
		sampled[i].Result = labels[s]
	}
	return workload.Dedup(sampled)
}

// userQuery draws one ad-hoc analytics statement over the user's own
// tables. SQLShare queries are longer than SDSS ones on average, access
// more tables, and nest more (Section 4.3.1, Figure 4).
func (g *SQLShareGenerator) userQuery(b *queryBuilder, cat *simdb.Catalog, tables []string) string {
	table := tables[b.rng.Intn(len(tables))]
	cols := tableColumns(cat, table)
	r := b.rng.Float64()
	switch {
	case r < 0.18:
		return g.selectStar(b, table)
	case r < 0.42:
		return g.filterQuery(b, cat, table, cols)
	case r < 0.62:
		return g.aggQuery(b, table, cols)
	case r < 0.78:
		return g.joinOwnTables(b, cat, tables)
	case r < 0.86:
		return g.nestedQuery(b, cat, table, cols)
	case r < 0.90:
		return g.unionQuery(b, cat, tables)
	case r < 0.97:
		return g.wideQuery(b, table, cols)
	case r < 0.985:
		return g.badQuery(b, table, cols)
	default:
		return g.brokenQuery(b, table)
	}
}

func tableColumns(cat *simdb.Catalog, table string) []string {
	t := cat.Table(table)
	if t == nil {
		return []string{"id"}
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = c.Name
	}
	return cols
}

func (g *SQLShareGenerator) selectStar(b *queryBuilder, table string) string {
	if b.rng.Intn(2) == 0 {
		return fmt.Sprintf("SELECT * FROM %s", table)
	}
	return fmt.Sprintf("SELECT TOP %d * FROM %s", []int{10, 100, 1000}[b.rng.Intn(3)], table)
}

func (g *SQLShareGenerator) filterQuery(b *queryBuilder, cat *simdb.Catalog, table string, cols []string) string {
	selected := b.pickN(cols, 1+b.rng.Intn(len(cols)))
	nPreds := 1 + b.rng.Intn(3)
	preds := make([]string, nPreds)
	for i := range preds {
		preds[i] = g.predicate(b, cat, table, cols)
	}
	order := ""
	if b.rng.Intn(3) == 0 {
		order = " ORDER BY " + cols[b.rng.Intn(len(cols))]
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s%s",
		strings.Join(selected, ", "), table, strings.Join(preds, " AND "), order)
}

func (g *SQLShareGenerator) predicate(b *queryBuilder, cat *simdb.Catalog, table string, cols []string) string {
	col := cols[b.rng.Intn(len(cols))]
	t := cat.Table(table)
	var max float64 = 1000
	if t != nil {
		if c := t.Column(col); c != nil && c.Max > 0 {
			max = c.Max
		}
	}
	switch b.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%s = %.0f", col, b.rng.Float64()*max)
	case 1:
		return fmt.Sprintf("%s > %.2f", col, b.rng.Float64()*max)
	case 2:
		return fmt.Sprintf("%s < %.2f", col, b.rng.Float64()*max)
	case 3:
		return fmt.Sprintf("%s IS NOT NULL", col)
	default:
		return fmt.Sprintf("%s LIKE '%%%s%%'", col, b.pick("a", "x", "test", "qc", "na"))
	}
}

func (g *SQLShareGenerator) aggQuery(b *queryBuilder, table string, cols []string) string {
	group := cols[b.rng.Intn(len(cols))]
	val := cols[b.rng.Intn(len(cols))]
	agg := b.pick("count(*)", "avg("+val+")", "sum("+val+")", "min("+val+")", "max("+val+")")
	having := ""
	if b.rng.Intn(4) == 0 {
		having = fmt.Sprintf(" HAVING count(*) > %d", 1+b.rng.Intn(50))
	}
	return fmt.Sprintf("SELECT %s, %s FROM %s GROUP BY %s%s", group, agg, table, group, having)
}

func (g *SQLShareGenerator) joinOwnTables(b *queryBuilder, cat *simdb.Catalog, tables []string) string {
	if len(tables) < 2 {
		return g.selectStar(b, tables[0])
	}
	idx := b.rng.Perm(len(tables))
	t1, t2 := tables[idx[0]], tables[idx[1]]
	c1 := tableColumns(cat, t1)
	c2 := tableColumns(cat, t2)
	key1 := joinKey(c1)
	key2 := joinKey(c2)
	sel := fmt.Sprintf("a.%s, b.%s", c1[b.rng.Intn(len(c1))], c2[b.rng.Intn(len(c2))])
	where := ""
	if b.rng.Intn(2) == 0 {
		where = fmt.Sprintf(" WHERE a.%s > %.1f", c1[b.rng.Intn(len(c1))], b.rng.Float64()*100)
	}
	return fmt.Sprintf("SELECT %s FROM %s a JOIN %s b ON a.%s = b.%s%s", sel, t1, t2, key1, key2, where)
}

func joinKey(cols []string) string {
	for _, c := range cols {
		if c == "id" || strings.HasSuffix(c, "_id") {
			return c
		}
	}
	return cols[0]
}

func (g *SQLShareGenerator) nestedQuery(b *queryBuilder, cat *simdb.Catalog, table string, cols []string) string {
	col := cols[b.rng.Intn(len(cols))]
	val := cols[b.rng.Intn(len(cols))]
	switch b.rng.Intn(3) {
	case 0:
		// nested aggregation
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s = (SELECT max(%s) FROM %s)",
			strings.Join(b.pickN(cols, 1+b.rng.Intn(3)), ", "), table, val, val, table)
	case 1:
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s IN (SELECT %s FROM %s WHERE %s > %.1f)",
			col, table, col, col, table, val, b.rng.Float64()*100)
	default:
		return fmt.Sprintf(
			"SELECT t.%s, t.cnt FROM (SELECT %s AS %s, count(*) AS cnt FROM %s GROUP BY %s) t WHERE t.cnt > %d",
			col, col, col, table, col, 1+b.rng.Intn(20))
	}
}

func (g *SQLShareGenerator) unionQuery(b *queryBuilder, cat *simdb.Catalog, tables []string) string {
	if len(tables) < 2 {
		return g.selectStar(b, tables[0])
	}
	idx := b.rng.Perm(len(tables))
	t1, t2 := tables[idx[0]], tables[idx[1]]
	c1 := tableColumns(cat, t1)[0]
	c2 := tableColumns(cat, t2)[0]
	return fmt.Sprintf("SELECT %s FROM %s UNION ALL SELECT %s FROM %s", c1, t1, c2, t2)
}

// wideQuery produces the long many-column statements that push the
// SQLShare length distribution right of SDSS's (Figure 4a).
func (g *SQLShareGenerator) wideQuery(b *queryBuilder, table string, cols []string) string {
	parts := make([]string, 0, len(cols)*2)
	for _, c := range cols {
		parts = append(parts, c)
		if b.rng.Intn(2) == 0 {
			parts = append(parts, fmt.Sprintf("avg(%s) AS avg_%s", c, c))
		}
	}
	group := strings.Join(cols, ", ")
	return fmt.Sprintf("SELECT %s FROM %s GROUP BY %s", strings.Join(parts, ", "), table, group)
}

func (g *SQLShareGenerator) badQuery(b *queryBuilder, table string, cols []string) string {
	col := misspell(b.rng, cols[b.rng.Intn(len(cols))])
	return fmt.Sprintf("SELECT %s FROM %s", col, table)
}

func (g *SQLShareGenerator) brokenQuery(b *queryBuilder, table string) string {
	return b.pick(
		"SELECT * FROM "+table+" WHERE",
		"SELECT FROM "+table,
		"select * form "+table,
	)
}
