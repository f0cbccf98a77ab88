package simdb_test

import (
	"math"
	"testing"

	"repro/internal/simdb"
)

// TestBindingEdgeCases pins Execute's Result and the `opt` estimate, bit
// for bit, on statements where name binding and cost estimation meet:
// one alias naming both a catalog table and a derived relation (the
// table binds), subqueries that compare an outer column to a literal in
// clauses the cost model never reads (binding them must not mark the
// outer relation as index-seeked), the ORDER BY tolerance of select-list
// aliases (decided by the first name that fails, in the order FROM,
// select list, WHERE, GROUP BY, HAVING, ORDER BY), and the non-SELECT
// statements that bind a procedure or a table.
func TestBindingEdgeCases(t *testing.T) {
	cat := simdb.NewSDSSCatalog()
	en := simdb.NewEngine(cat)
	opt := simdb.Optimizer{Catalog: cat}
	for _, c := range bindingEdgeCases {
		got := en.Execute(c.query)
		if got.Error != c.want.Error || got.AnswerSize != c.want.AnswerSize ||
			math.Float64bits(got.CPUTime) != math.Float64bits(c.want.CPUTime) ||
			math.Float64bits(got.Elapsed) != math.Float64bits(c.want.Elapsed) {
			t.Errorf("Execute(%q) = %+v, want %+v", c.query, got, c.want)
		}
		if o := opt.EstimateCost(c.query); math.Float64bits(o) != math.Float64bits(c.opt) {
			t.Errorf("EstimateCost(%q) = %v, want %v", c.query, o, c.opt)
		}
	}
}

// bindingEdgeCases also seed FuzzExecute.
var bindingEdgeCases = []struct {
	query string
	want  simdb.Result
	opt   float64
}{
	{"SELECT p.x FROM PhotoObj p, (SELECT 1 AS x) p",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.011, Elapsed: 0.013}, 99.29108939999999},
	{"SELECT p.ra FROM PhotoObj p, (SELECT 1 AS x) p",
		simdb.Result{Error: simdb.Success, AnswerSize: 973101763, CPUTime: 23.418, Elapsed: 27.02}, 99.29108939999999},
	{"SELECT x FROM PhotoObj p, (SELECT 1 AS x) p",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.003, Elapsed: 0.004}, 99.29108939999999},
	{"SELECT ra FROM (SELECT 1 AS x) p, PhotoObj p WHERE p.objid = 1237648720693755918",
		simdb.Result{Error: simdb.Success, AnswerSize: 1, CPUTime: 0.001, Elapsed: 0.075}, 1.0564672159500001},
	{"SELECT p.anything FROM PhotoObj p, mydb.results p",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.005, Elapsed: 0.006}, 4.1702416413243e+06},
	{"SELECT p.ra FROM mydb.results p, PhotoObj p WHERE p.ra < 10",
		simdb.Result{Error: simdb.Success, AnswerSize: 983230636, CPUTime: 8745.911, Elapsed: 10707.284}, 1.25108996832902e+06},
	{"SELECT p.ra FROM PhotoObj p JOIN (SELECT objid AS ra FROM Star) p ON p.objid = 1237648720693755918",
		simdb.Result{Error: simdb.Success, AnswerSize: 962883915, CPUTime: 6.260191339e+06, Elapsed: 8.380296281e+06}, 2.1685179313979214e+08},
	{"SELECT a.objid FROM PhotoObj a WHERE a.type IN (1, (SELECT 2 FROM Star t WHERE a.objid = 1237648720693755918))",
		simdb.Result{Error: simdb.Success, AnswerSize: 140505650, CPUTime: 21.165, Elapsed: 33.657}, 23.9092943215},
	{"SELECT a.objid FROM PhotoObj a WHERE EXISTS (SELECT 1 FROM Star s WHERE s.type IN (1, (SELECT 2 FROM Galaxy g WHERE a.objid = 1237648720693755918)))",
		simdb.Result{Error: simdb.Success, AnswerSize: 392330835, CPUTime: 52.972, Elapsed: 68.706}, 87.9303645725},
	{"SELECT a.objid FROM PhotoObj a WHERE EXISTS (SELECT 1 FROM Star s ORDER BY (SELECT 1 FROM Galaxy g WHERE a.objid = 1237648720693755918))",
		simdb.Result{Error: simdb.Success, AnswerSize: 962408026, CPUTime: 202.297, Elapsed: 369.228}, 232.48483381844147},
	{"SELECT a.objid FROM PhotoObj a WHERE EXISTS (SELECT 1 FROM Star s HAVING 1 IN (SELECT 1 FROM Galaxy g WHERE a.objid = 1237648720693755918))",
		simdb.Result{Error: simdb.Success, AnswerSize: 503220690, CPUTime: 24.3, Elapsed: 43.507}, 87.12436457249999},
	{"SELECT a.objid FROM PhotoObj a WHERE a.ra IN (SELECT s.ra FROM Star s GROUP BY s.ra, (SELECT 1 FROM Galaxy g WHERE a.objid = 1237648720693755918))",
		simdb.Result{Error: simdb.Success, AnswerSize: 192941508, CPUTime: 54.022, Elapsed: 73.881}, 57.662558542499994},
	{"SELECT a.objid FROM PhotoObj a WHERE EXISTS (SELECT 1 FROM Star s ORDER BY (SELECT 1 FROM Galaxy g WHERE a.objid = 1237648720693755918 AND g.bogus = 1))",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.01, Elapsed: 0.012}, 232.48483381844147},
	{"SELECT ra + dec AS r2 FROM PhotoObj ORDER BY r2 + bogus",
		simdb.Result{Error: simdb.Success, AnswerSize: 601889719, CPUTime: 562.047, Elapsed: 958.735}, 568.9802150288411},
	{"SELECT ra + dec AS r2 FROM PhotoObj ORDER BY bogus + r2",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.005, Elapsed: 0.006}, 568.9802150288411},
	{"SELECT ra AS r2 FROM PhotoObj ORDER BY (SELECT r2 FROM Star)",
		simdb.Result{Error: simdb.Success, AnswerSize: 446131190, CPUTime: 772.995, Elapsed: 866.881}, 568.9802150288411},
	{"SELECT ra AS r2 FROM PhotoObj WHERE ra < 1 ORDER BY r2 DESC",
		simdb.Result{Error: simdb.Success, AnswerSize: 4944977, CPUTime: 11.574, Elapsed: 19.666}, 179.8909663885683},
	{"EXEC dbo.spBogus 1, 2",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.011, Elapsed: 0.013}, 0},
	{"EXEC dbo.spGetNeighbors 1",
		simdb.Result{Error: simdb.Success, AnswerSize: 136, CPUTime: 0.928, Elapsed: 1.602}, 0},
	{"UPDATE Bogus SET x = 1",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.004, Elapsed: 0.005}, 0},
	{"UPDATE mydb.results SET x = 1",
		simdb.Result{Error: simdb.Success, AnswerSize: 0, CPUTime: 0.208, Elapsed: 0.397}, 0},
	{"UPDATE PhotoObj SET ra = 1",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.003, Elapsed: 0.004}, 0},
	{"DELETE FROM Bogus WHERE x = 1",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.005, Elapsed: 0.006}, 0},
	{"DELETE FROM mydb.results WHERE x = 1",
		simdb.Result{Error: simdb.Success, AnswerSize: 0, CPUTime: 0.014, Elapsed: 0.033}, 0},
	{"DELETE FROM PhotoObj WHERE ra = 1",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.001, Elapsed: 0.001}, 0},
	{"INSERT INTO mydb.t SELECT objid FROM PhotoObj WHERE ra < 10",
		simdb.Result{Error: simdb.Success, AnswerSize: 0, CPUTime: 18.859, Elapsed: 25.089}, 0},
	{"INSERT INTO mydb.t SELECT bogus FROM PhotoObj",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.007, Elapsed: 0.008}, 0},
	{"INSERT INTO mydb.t VALUES (1, 2)",
		simdb.Result{Error: simdb.Success, AnswerSize: 0, CPUTime: 0.012, Elapsed: 0.025}, 0},
	{"SELECT ra AS r2 FROM PhotoObj ORDER BY (SELECT bogus FROM Star WHERE r2 = 1)",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.003, Elapsed: 0.004}, 568.9802150288411},
	{"SELECT ra AS r2 FROM PhotoObj ORDER BY (SELECT r2 FROM Star WHERE bogus = 1)",
		simdb.Result{Error: simdb.Success, AnswerSize: 979387719, CPUTime: 691.928, Elapsed: 995.064}, 568.9802150288411},
	{"SELECT ra FROM PhotoObj HAVING bogus > 1",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.01, Elapsed: 0.012}, 99.29108937499998},
	{"SELECT u FROM PhotoObj p, Field p",
		simdb.Result{Error: simdb.NonSevere, AnswerSize: -1, CPUTime: 0.006, Elapsed: 0.007}, 7.50640794720743e+07},
	{"SELECT fieldid FROM PhotoObj p, Field p",
		simdb.Result{Error: simdb.Success, AnswerSize: 991388548, CPUTime: 4.468941469e+06, Elapsed: 7.005263266e+06}, 7.50640794720743e+07},
}
