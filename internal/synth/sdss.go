package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/lazyrand"
	"repro/internal/simdb"
	"repro/internal/workload"
)

// SDSSConfig controls the SDSS-like workload generator.
type SDSSConfig struct {
	// Sessions is the number of simulated user sessions, one sampled
	// hit each. The extracted workload has Sessions*0.74-0.79 unique
	// statements at 1 400-14 000 sessions and HitsPerSessionMax 1-3
	// (measured; the ratio falls slowly with Sessions, up to 0.83 at 400
	// sessions; Figure 20: ~81.5% of statements appear once).
	Sessions int
	// HitsPerSessionMax bounds the per-session hit count. Generate
	// labels only the one hit per session it keeps, so extra hits cost
	// only their drawing; GenerateLog labels every hit.
	HitsPerSessionMax int
	Seed              int64
}

// classWeights reproduce the session-class imbalance of Figure 6b:
// no_web_hit 44.8%, bot 26.1%, browser 20.4%, program 7.9%,
// anonymous 0.76%, unknown small. The admin weight is nominal: the
// cumulative weights above it already cover the unit interval, so
// admin sessions are vanishingly rare — faithful to the paper, whose
// test set contains 2 admin queries out of 61,805 (F_admin = 0 for
// every model in Table 4).
var classWeights = []struct {
	class  workload.SessionClass
	weight float64
}{
	{workload.NoWebHit, 0.4478},
	{workload.Bot, 0.2613},
	{workload.Browser, 0.2037},
	{workload.Program, 0.0790},
	{workload.Anonymous, 0.0076},
	{workload.Unknown, 0.0030},
	{workload.Admin, 0.0010},
}

// SDSSGenerator produces an SDSS-like raw query log.
type SDSSGenerator struct {
	cfg     SDSSConfig
	catalog *simdb.Catalog
	engine  *simdb.Engine
	rng     *rand.Rand
	session *rand.Rand // reseeded from rng per session; lazily seeded
	popular []string   // shared pool of popular exact statements
	hotIDs  []string   // famous objects everyone looks up
}

// NewSDSS creates a generator with its own catalog and engine.
func NewSDSS(cfg SDSSConfig) *SDSSGenerator {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1000
	}
	if cfg.HitsPerSessionMax <= 0 {
		cfg.HitsPerSessionMax = 3
	}
	cat := simdb.NewSDSSCatalog()
	g := &SDSSGenerator{
		cfg:     cfg,
		catalog: cat,
		engine:  simdb.NewEngine(cat),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		session: rand.New(lazyrand.New(0)),
	}
	g.buildPopularPool()
	return g
}

// Catalog returns the generator's SDSS catalog (shared with its engine).
func (g *SDSSGenerator) Catalog() *simdb.Catalog { return g.catalog }

// Engine returns the label-producing execution engine.
func (g *SDSSGenerator) Engine() *simdb.Engine { return g.engine }

// buildPopularPool creates the exact statements that many sessions
// reuse verbatim (sample queries from the SDSS help pages, docs
// examples pasted by users): the source of Figure 20's repetition tail.
func (g *SDSSGenerator) buildPopularPool() {
	n := g.cfg.Sessions / 6
	if n < 12 {
		n = 12
	}
	b := &queryBuilder{rng: rand.New(rand.NewSource(g.cfg.Seed + 7777))}
	nHot := g.cfg.Sessions / 30
	if nHot < 8 {
		nHot = 8
	}
	for i := 0; i < nHot; i++ {
		g.hotIDs = append(g.hotIDs, b.objid())
	}
	for i := 0; i < n; i++ {
		var q string
		switch i % 5 {
		case 0:
			q = g.pointLookup(b)
		case 1:
			q = g.countQuery(b)
		case 2:
			q = g.coneSearch(b)
		case 3:
			q = g.topQuery(b)
		default:
			q = g.joinQuery(b)
		}
		g.popular = append(g.popular, q)
	}
}

// GenerateLog simulates all sessions and returns the raw log entries,
// every hit of every session labelled. Statements are labelled as they
// are drawn, on every core, once per distinct statement; the log is the
// same at any GOMAXPROCS.
func (g *SDSSGenerator) GenerateLog() []workload.RawEntry {
	return g.simulate(newLabeller(), nil)
}

// Generate produces the extracted workload: exactly
// workload.Extract(g.GenerateLog(), rand.New(rand.NewSource(Seed+1))),
// but only the hit each session keeps is labelled.
func (g *SDSSGenerator) Generate() *workload.Workload {
	return workload.Dedup(g.simulate(newLabeller(), rand.New(rand.NewSource(g.cfg.Seed+1))))
}

// simulate draws every hit of every session and labels on lab the hits
// it returns. With sample nil it returns them all. Otherwise it returns
// one hit per session, drawn by sample.Intn(hits) as soon as the
// session's hit count is known: the draws workload.Extract makes over
// the whole log, whose session ids run 0..Sessions-1 in order. Every hit
// is still drawn, since the later sessions' statements depend on it.
func (g *SDSSGenerator) simulate(lab *labeller, sample *rand.Rand) []workload.RawEntry {
	var log []workload.RawEntry
	var slots []int
	for s := 0; s < g.cfg.Sessions; s++ {
		class := g.pickClass()
		hits := 1 + g.rng.Intn(g.cfg.HitsPerSessionMax)
		keep := -1 // every hit
		if sample != nil {
			keep = sample.Intn(hits)
		}
		// Bots repeat one template within a session with fresh
		// constants; humans write each query independently.
		g.session.Seed(g.rng.Int63())
		b := &queryBuilder{rng: g.session}
		var botTemplate func(*queryBuilder) string
		if class == workload.Bot {
			botTemplate = g.botTemplates()[g.rng.Intn(len(g.botTemplates()))]
		}
		for h := 0; h < hits; h++ {
			var stmt string
			switch {
			case botTemplate != nil:
				stmt = botTemplate(b)
			case g.rng.Float64() < 0.40:
				// Humans frequently paste popular statements verbatim
				// (docs samples, shared notebooks).
				stmt = g.popularPick()
			default:
				stmt = g.queryForClass(class, b)
			}
			if keep >= 0 && h != keep {
				continue
			}
			log = append(log, workload.RawEntry{
				Statement: stmt,
				SessionID: s,
				Class:     class,
			})
			slots = append(slots, lab.add(g.engine, stmt))
		}
	}
	labels := lab.results()
	for i, s := range slots {
		log[i].Result = labels[s]
	}
	return log
}

func (g *SDSSGenerator) pickClass() workload.SessionClass {
	r := g.rng.Float64()
	acc := 0.0
	for _, cw := range classWeights {
		acc += cw.weight
		if r < acc {
			return cw.class
		}
	}
	return workload.Browser
}

// popularPick draws from the shared statement pool: half the draws are
// uniform (many statements repeated a few times), half are strongly
// head-weighted (a few statements repeated hundreds of times) —
// together reproducing Figure 20's repetition histogram.
func (g *SDSSGenerator) popularPick() string {
	if g.rng.Intn(2) == 0 {
		return g.popular[g.rng.Intn(len(g.popular))]
	}
	return g.popular[g.zipfIndex(len(g.popular))]
}

// zipfIndex draws an index with a heavy head (popular queries are very
// popular).
func (g *SDSSGenerator) zipfIndex(n int) int {
	for i := 0; i < n-1; i++ {
		if g.rng.Float64() < 0.35 {
			return i
		}
	}
	return n - 1
}

func (g *SDSSGenerator) botTemplates() []func(*queryBuilder) string {
	return []func(*queryBuilder) string{
		g.pointLookup,
		func(b *queryBuilder) string {
			return fmt.Sprintf("SELECT * FROM PhotoTag WHERE objId=%s", b.objid())
		},
		func(b *queryBuilder) string {
			return fmt.Sprintf("SELECT objid,ra,dec FROM PhotoObj WHERE htmid=%d", b.rng.Int63n(1_800_000_000_000_000))
		},
		func(b *queryBuilder) string {
			return fmt.Sprintf("SELECT z FROM SpecObj WHERE specobjid=%s", b.objid())
		},
	}
}

// queryForClass draws one statement in the style of the session class.
func (g *SDSSGenerator) queryForClass(class workload.SessionClass, b *queryBuilder) string {
	r := b.rng.Float64()
	switch class {
	case workload.Bot:
		switch {
		case r < 0.70:
			return g.pointLookup(b)
		case r < 0.85:
			return g.countQuery(b)
		default:
			return g.topQuery(b)
		}
	case workload.Admin:
		if r < 0.85 {
			return g.adminQuery(b)
		}
		return g.execQuery(b)
	case workload.Program:
		switch {
		case r < 0.45:
			return g.coneSearch(b)
		case r < 0.62:
			return g.pointLookup(b)
		case r < 0.72:
			return g.casJobsInto(b)
		case r < 0.82:
			return g.countQuery(b)
		case r < 0.91:
			return g.funcQuery(b)
		case r < 0.99:
			return g.topQuery(b)
		default:
			return g.badColumnQuery(b)
		}
	case workload.Browser, workload.Anonymous:
		switch {
		case r < 0.18:
			return maybeLower(b.rng, g.coneSearch(b), true)
		case r < 0.34:
			return maybeLower(b.rng, g.pointLookup(b), true)
		case r < 0.43:
			return maybeLower(b.rng, g.countQuery(b), true)
		case r < 0.56:
			return maybeLower(b.rng, g.joinQuery(b), true)
		case r < 0.65:
			return maybeLower(b.rng, g.funcQuery(b), true)
		case r < 0.74:
			return maybeLower(b.rng, g.topQuery(b), true)
		case r < 0.745:
			return g.nestedQuery(b)
		case r < 0.785:
			return g.junkQuery(b)
		case r < 0.815:
			return g.badColumnQuery(b)
		case r < 0.87:
			return maybeLower(b.rng, g.groupByQuery(b), true)
		case r < 0.93:
			return g.wideSelect(b)
		case r < 0.96:
			return g.multiJoinChain(b)
		case r < 0.965:
			return g.cartesianMistake(b)
		default:
			return maybeLower(b.rng, g.pointLookup(b), true)
		}
	case workload.NoWebHit:
		switch {
		case r < 0.20:
			return g.casJobsInto(b)
		case r < 0.38:
			return g.joinQuery(b)
		case r < 0.50:
			return g.funcQuery(b)
		case r < 0.53:
			return g.nestedQuery(b)
		case r < 0.69:
			return g.coneSearch(b)
		case r < 0.76:
			return g.groupByQuery(b)
		case r < 0.77:
			return g.badColumnQuery(b)
		case r < 0.79:
			return g.junkQuery(b)
		case r < 0.85:
			return g.execQuery(b)
		case r < 0.93:
			return g.wideSelect(b)
		case r < 0.97:
			return g.multiJoinChain(b)
		default:
			return g.topQuery(b)
		}
	default: // Unknown
		if r < 0.5 {
			return g.pointLookup(b)
		}
		return g.coneSearch(b)
	}
}

// Query makers.

func (g *SDSSGenerator) pointLookup(b *queryBuilder) string {
	// Famous objects are looked up verbatim by many users (the docs
	// example with a pasted object id), another repetition source.
	if len(g.hotIDs) > 0 && b.rng.Float64() < 0.35 {
		return fmt.Sprintf("SELECT * FROM PhotoTag WHERE objId=%s", g.hotIDs[b.rng.Intn(len(g.hotIDs))])
	}
	table := b.pick("PhotoObj", "PhotoTag", "PhotoPrimary", "SpecObj")
	key := "objid"
	colPool := photoCols
	if table == "SpecObj" {
		key = "specobjid"
		colPool = specCols
	}
	if b.rng.Intn(4) == 0 {
		return fmt.Sprintf("SELECT * FROM %s WHERE %s=%s", table, key, b.objid())
	}
	cols := b.pickN(colPool, 1+b.rng.Intn(5))
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s=%s",
		strings.Join(cols, ","), table, key, b.objid())
}

func (g *SDSSGenerator) countQuery(b *queryBuilder) string {
	table := b.pick("Galaxy", "Star", "PhotoObj", "SpecObj")
	col := b.pick("r", "g", "u", "type", "mode")
	if table == "SpecObj" {
		col = b.pick("z", "zconf", "specclass")
	}
	op := b.pick("<", ">", "=")
	val := fmt.Sprintf("%.2f", b.rng.Float64()*25)
	if col == "type" || col == "mode" || col == "specclass" {
		val = fmt.Sprintf("%d", b.rng.Intn(7))
	}
	return fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s %s %s", table, col, op, val)
}

// coneSearch is the Figure 2b pattern: a sky-region box query.
func (g *SDSSGenerator) coneSearch(b *queryBuilder) string {
	ra, dec := b.ra(), b.dec()
	radius := 0.05 + b.rng.Float64()*0.5
	cols := b.pickN(photoCols, 2+b.rng.Intn(8))
	for i, c := range cols {
		cols[i] = "p." + c
	}
	extra := ""
	if b.rng.Intn(2) == 0 {
		extra = fmt.Sprintf(" AND type=%d", b.rng.Intn(7))
	}
	order := ""
	if b.rng.Intn(3) == 0 {
		order = " ORDER BY p.objid"
	}
	return fmt.Sprintf(
		"SELECT %s FROM PhotoObj AS p WHERE p.ra BETWEEN (%s-%s) AND (%s+%s) AND p.dec BETWEEN (%s-%s) AND (%s+%s)%s%s",
		strings.Join(cols, ","), fmtF(ra), fmtF(radius), fmtF(ra), fmtF(radius),
		fmtF(dec), fmtF(radius), fmtF(dec), fmtF(radius), extra, order)
}

func (g *SDSSGenerator) topQuery(b *queryBuilder) string {
	table := b.pick("PhotoObj", "Galaxy", "Star", "SpecObj", "PhotoPrimary")
	n := []int{10, 100, 1000}[b.rng.Intn(3)]
	colPool := photoCols
	if table == "SpecObj" {
		colPool = specCols
	}
	cols := b.pickN(colPool, 1+b.rng.Intn(6))
	where := ""
	if b.rng.Intn(2) == 0 {
		where = fmt.Sprintf(" WHERE %s < %.2f", b.pick("r", "g"), 15+b.rng.Float64()*10)
		if table == "SpecObj" {
			where = fmt.Sprintf(" WHERE z < %.3f", b.rng.Float64()*2)
		}
	}
	return fmt.Sprintf("SELECT TOP %d %s FROM %s%s", n, strings.Join(cols, ","), table, where)
}

func (g *SDSSGenerator) joinQuery(b *queryBuilder) string {
	pc := b.pickN(photoCols, 1+b.rng.Intn(4))
	sc := b.pickN(specCols, 1+b.rng.Intn(3))
	var cols []string
	for _, c := range pc {
		cols = append(cols, "p."+c)
	}
	for _, c := range sc {
		cols = append(cols, "s."+c)
	}
	where := fmt.Sprintf("s.zconf > %.2f", 0.35+b.rng.Float64()*0.6)
	if b.rng.Intn(2) == 0 {
		where += fmt.Sprintf(" AND p.r < %.2f", 15+b.rng.Float64()*10)
	}
	if b.rng.Intn(3) == 0 {
		// comma-style join
		return fmt.Sprintf("SELECT %s FROM SpecObj s, PhotoObj p WHERE s.bestobjid=p.objid AND %s",
			strings.Join(cols, ","), where)
	}
	join := b.pick("INNER JOIN", "JOIN", "LEFT JOIN")
	return fmt.Sprintf("SELECT %s FROM SpecObj AS s %s PhotoObj AS p ON s.bestobjid=p.objid WHERE %s",
		strings.Join(cols, ","), join, where)
}

func (g *SDSSGenerator) funcQuery(b *queryBuilder) string {
	switch b.rng.Intn(4) {
	case 0:
		// The Figure 1b anti-pattern.
		flag := b.pick("BLENDED", "SATURATED", "EDGE", "CHILD", "DEBLENDED_AS_MOVING")
		return fmt.Sprintf("SELECT objid FROM PhotoObj WHERE flags & dbo.fPhotoFlags('%s') > 0", flag)
	case 1:
		return fmt.Sprintf(
			"SELECT p.objid, dbo.fDistanceArcMinEq(%s,%s,p.ra,p.dec) FROM PhotoObj AS p WHERE p.ra BETWEEN %s AND %s",
			fmtF(b.ra()), fmtF(b.dec()), fmtF(b.ra()*0.5), fmtF(b.ra()*0.5+1))
	case 2:
		return fmt.Sprintf("SELECT dbo.fGetURLExpid(objid) FROM SpecPhoto WHERE modelmag_u - modelmag_g < %.2f",
			b.rng.Float64()*3)
	default:
		return fmt.Sprintf("SELECT objid, sqrt(power(u-g,2)+power(g-r,2)) FROM PhotoObj WHERE r < %.2f",
			14+b.rng.Float64()*8)
	}
}

func (g *SDSSGenerator) groupByQuery(b *queryBuilder) string {
	table := b.pick("PhotoObj", "SpecObj", "Field")
	group := b.pick("run", "camcol", "field")
	if table == "SpecObj" {
		group = b.pick("plate", "specclass")
	}
	agg := b.pick("count(*)", "avg(ra)", "min(dec)", "max(ra)")
	having := ""
	if b.rng.Intn(3) == 0 {
		having = fmt.Sprintf(" HAVING count(*) > %d", 10*(1+b.rng.Intn(100)))
	}
	return fmt.Sprintf("SELECT %s, %s FROM %s GROUP BY %s%s ORDER BY %s",
		group, agg, table, group, having, group)
}

func (g *SDSSGenerator) nestedQuery(b *queryBuilder) string {
	if b.rng.Intn(10) == 0 {
		// Deeply nested CasJobs service query in the style of Figure 16.
		return `SELECT j.target, cast(j.estimate AS varchar) AS queue FROM Jobs j, Users u,
 (SELECT DISTINCT target, queue FROM Servers s1 WHERE s1.name NOT IN
  (SELECT name FROM Servers s,
    (SELECT target, min(queue) AS queue FROM Servers GROUP BY target) AS a
   WHERE a.target = s.target)) b
 WHERE j.outputtype LIKE '%QUERY%' AND j.uid = u.id`
	}
	// Nested aggregation in the style of Figure 5.
	return fmt.Sprintf(`SELECT dbo.fGetURLExpid(objid) FROM SpecPhoto WHERE modelmag_u - modelmag_g =
 (SELECT min(modelmag_u - modelmag_g) FROM SpecPhoto AS s INNER JOIN PhotoObj AS p ON s.objid = p.objid
  WHERE (s.flags_g = %d OR p.psfmagerr_g <= %.1f AND p.psfmagerr_u <= %.1f))`,
		b.rng.Intn(2), 0.1+b.rng.Float64()*0.3, 0.1+b.rng.Float64()*0.3)
}

// casJobsInto is the SELECT ... INTO mydb pattern of batch users.
func (g *SDSSGenerator) casJobsInto(b *queryBuilder) string {
	cols := b.pickN(photoCols, 4+b.rng.Intn(15))
	for i, c := range cols {
		cols[i] = "p." + c
	}
	name := fmt.Sprintf("mydb.run%d", b.rng.Intn(100000))
	return fmt.Sprintf(
		"SELECT %s INTO %s FROM PhotoObj AS p WHERE p.ra BETWEEN %s AND %s AND p.type=%d",
		strings.Join(cols, ","), name, fmtF(b.ra()*0.5), fmtF(b.ra()*0.5+3+b.rng.Float64()*10), b.rng.Intn(7))
}

func (g *SDSSGenerator) adminQuery(b *queryBuilder) string {
	switch b.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("SELECT COUNT(*) FROM Jobs WHERE status=%d", b.rng.Intn(7))
	case 1:
		return "SELECT target, count(*) FROM Jobs GROUP BY target"
	default:
		return fmt.Sprintf("SELECT name, queue FROM Servers WHERE queue > %d", b.rng.Intn(8))
	}
}

func (g *SDSSGenerator) execQuery(b *queryBuilder) string {
	switch b.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("EXEC dbo.spGetNeighbors %s, %s, %.2f", fmtF(b.ra()), fmtF(b.dec()), 0.1+b.rng.Float64())
	case 1:
		return fmt.Sprintf("EXECUTE dbo.spGetMatch %s, %.2f", b.objid(), b.rng.Float64())
	default:
		return "EXEC sp_help"
	}
}

// wideSelect produces the long statements of the distribution tail
// (Figure 3a reaches 7,795 characters): dozens of selected expressions,
// CASE arms, and function wrapping — Q1-style browser exports.
func (g *SDSSGenerator) wideSelect(b *queryBuilder) string {
	n := 15 + b.rng.Intn(70)
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c := "p." + photoCols[b.rng.Intn(len(photoCols))]
		switch b.rng.Intn(6) {
		case 0:
			parts = append(parts, fmt.Sprintf("round(%s,%d) AS c%d", c, 1+b.rng.Intn(5), i))
		case 1:
			parts = append(parts, fmt.Sprintf("%s-%s AS d%d", c, "p."+photoCols[b.rng.Intn(len(photoCols))], i))
		case 2:
			parts = append(parts, fmt.Sprintf("CASE WHEN %s > %d THEN %d ELSE %d END AS f%d",
				c, b.rng.Intn(20), 1, 0, i))
		default:
			parts = append(parts, c)
		}
	}
	where := fmt.Sprintf("p.ra BETWEEN %s AND %s AND p.r < %.2f",
		fmtF(b.ra()*0.5), fmtF(b.ra()*0.5+2), 14+b.rng.Float64()*8)
	tail := ""
	if b.rng.Intn(2) == 0 {
		tail = " ORDER BY p.objid"
	}
	return fmt.Sprintf("SELECT %s FROM PhotoObj AS p WHERE %s%s",
		strings.Join(parts, ", "), where, tail)
}

// multiJoinChain produces statements with several explicit joins (the
// Figure 3d tail reaches 73 join operators).
func (g *SDSSGenerator) multiJoinChain(b *queryBuilder) string {
	n := 2 + b.rng.Intn(6)
	tables := []string{"PhotoObj", "SpecObj", "PhotoTag", "SpecPhoto", "PhotoPrimary", "Galaxy", "Star"}
	base := tables[b.rng.Intn(len(tables))]
	q := fmt.Sprintf("SELECT t0.objid FROM %s AS t0", base)
	for i := 1; i <= n; i++ {
		t := tables[b.rng.Intn(len(tables))]
		q += fmt.Sprintf(" JOIN %s AS t%d ON t%d.objid = t%d.objid", t, i, i-1, i)
	}
	q += fmt.Sprintf(" WHERE t0.ra BETWEEN %s AND %s", fmtF(b.ra()*0.5), fmtF(b.ra()*0.5+0.5))
	return q
}

// cartesianMistake is the classic missing-join-predicate blunder: a
// comma join without the equality predicate, producing an enormous
// answer and CPU time (the heavy tail of Figures 6c/6d).
func (g *SDSSGenerator) cartesianMistake(b *queryBuilder) string {
	return fmt.Sprintf(
		"SELECT p.objid, s.z FROM PhotoObj p, SpecObj s WHERE s.zconf > %.2f",
		0.5+b.rng.Float64()*0.4)
}

// junkQuery produces statements the portal rejects (severe class):
// natural language, truncated SQL, token deletions, and unbalanced
// syntax. Corruptions are applied to otherwise-valid generated queries
// so severe errors are not trivially separable by a fixed phrase list.
func (g *SDSSGenerator) junkQuery(b *queryBuilder) string {
	base := g.queryForClassBase(b)
	switch b.rng.Intn(6) {
	case 0:
		return b.pick(
			"how do I find all galaxies near m31?",
			"show me bright stars please",
			"what is the redshift of ngc 4258",
			"find quasars with z > 2",
			"list of all tables",
			"need the photometry for my objects")
	case 1:
		// Truncate mid-statement (pasted queries cut off by the form).
		runes := []rune(base)
		if len(runes) > 20 {
			cut := 10 + b.rng.Intn(len(runes)-15)
			return string(runes[:cut])
		}
		return string(runes) + " WHERE"
	case 2:
		// Delete a random word.
		words := strings.Fields(base)
		if len(words) > 3 {
			i := b.rng.Intn(len(words)-1) + 1
			words = append(words[:i], words[i+1:]...)
		}
		return strings.Join(words, " ")
	case 3:
		// Unbalance parentheses.
		if i := strings.LastIndex(base, ")"); i >= 0 {
			return base[:i] + base[i+1:]
		}
		return "(" + base
	case 4:
		// Misspell the leading keyword.
		words := strings.Fields(base)
		if len(words) > 0 {
			words[0] = misspell(b.rng, words[0])
		}
		return strings.Join(words, " ")
	default:
		return fmt.Sprintf("SELECT TOP objid FROM PhotoObj WHERE r < %.1f", 15+b.rng.Float64()*5)
	}
}

// queryForClassBase draws a clean statement to corrupt.
func (g *SDSSGenerator) queryForClassBase(b *queryBuilder) string {
	switch b.rng.Intn(4) {
	case 0:
		return g.coneSearch(b)
	case 1:
		return g.joinQuery(b)
	case 2:
		return g.pointLookup(b)
	default:
		return g.topQuery(b)
	}
}

// badColumnQuery produces syntactically valid queries with misspelled
// identifiers (non-severe class: the database rejects them at binding).
func (g *SDSSGenerator) badColumnQuery(b *queryBuilder) string {
	switch b.rng.Intn(3) {
	case 0:
		col := misspell(b.rng, b.pick(photoCols...))
		return fmt.Sprintf("SELECT %s FROM PhotoObj WHERE r < %.2f", col, 15+b.rng.Float64()*10)
	case 1:
		table := misspell(b.rng, b.pick("PhotoObj", "SpecObj", "Galaxy"))
		return fmt.Sprintf("SELECT objid FROM %s WHERE ra > %s", table, fmtF(b.ra()))
	default:
		fn := misspell(b.rng, b.pick("fPhotoFlags", "fGetURLExpid", "fDistanceArcMinEq"))
		return fmt.Sprintf("SELECT dbo.%s(objid) FROM PhotoObj WHERE type=%d", fn, b.rng.Intn(7))
	}
}
