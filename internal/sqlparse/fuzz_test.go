package sqlparse

import (
	"fmt"
	"go/scanner"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// FuzzParse is the differential behind the pooled parse state
// (borrowToks/releaseToks): Parse and ExtractFeatures, which lex into a
// recycled lexState, must answer exactly like the same functions over a
// freshly allocated one — statements deep-equal, error text equal,
// feature vectors equal bit for bit — and neither may panic. Another
// statement is parsed through the pool first, so the state query lexes
// into holds that statement's runes and tokens: a reference into
// recycled state shows as a difference.
func FuzzParse(f *testing.F) {
	between := "SELECT a, b FROM t WHERE c = 1"
	for _, s := range testLiterals(f) {
		f.Add(s, between)
	}
	for _, s := range generatedStatements {
		f.Add(s, between)
		f.Add(between, s)
	}
	f.Fuzz(func(t *testing.T, query, other string) {
		fresh := new(lexState)
		fresh.lex(query)
		wantStmts, wantErr := parseTokens(fresh.toks)
		wantFeat := featuresOf(query, fresh.toks)

		_, _ = Parse(other)
		gotStmts, gotErr := Parse(query)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("Parse(%q) error: pooled %q, fresh %q", query, errText(gotErr), errText(wantErr))
		}
		if !reflect.DeepEqual(gotStmts, wantStmts) {
			t.Fatalf("Parse(%q): pooled and fresh statements differ", query)
		}

		ExtractFeatures(other)
		gotFeat := ExtractFeatures(query)
		if gotFeat != wantFeat {
			t.Fatalf("ExtractFeatures(%q): pooled %+v, fresh %+v", query, gotFeat, wantFeat)
		}
		gv, wv := gotFeat.Vector(), wantFeat.Vector()
		for i := range wv {
			if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
				t.Fatalf("ExtractFeatures(%q).Vector()[%d]: pooled %v, fresh %v", query, i, gv[i], wv[i])
			}
		}
	})
}

// FuzzParseMatchesReference is the differential behind the grammar
// shapes in parser.go: on any input, Parse must return what refParse,
// the parser it replaced (kept in parseref_test.go), returns —
// statements deep-equal, errors equal in message and position.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range testLiterals(f) {
		f.Add(s)
	}
	for _, s := range generatedStatements {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		if d := diffReference(query); d != "" {
			t.Fatal(d)
		}
	})
}

// diffReference parses input with Parse and with refParse and
// describes the first difference, or returns "" when there is none.
func diffReference(input string) string {
	got, gotErr := Parse(input)
	want, wantErr := refParse(input)
	if !reflect.DeepEqual(gotErr, wantErr) {
		return fmt.Sprintf("Parse(%q) error %v, reference %v", input, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Parse(%q): statements differ from the reference's", input)
	}
	return ""
}

// generatedStatements are drawn from synth's SDSS and SQLShare
// generators (seed 1); this package cannot import them.
var generatedStatements = []string{
	"SELECT z FROM SpecObj WHERE specobjid=122169136768973484",
	"SELECT p.flags,s.ra FROM SpecObj s, PhotoObj p WHERE s.bestobjid=p.objid AND s.zconf > 0.47 AND p.r < 16.24",
	"select p.extinction_r,p.status,p.run,p.z,s.mjd,s.dec,s.bestobjid from specobj as s inner join photoobj as p on s.bestobjid=p.objid where s.zconf > 0.64",
	"SELECT t0.objid FROM Galaxy AS t0 JOIN PhotoPrimary AS t1 ON t0.objid = t1.objid JOIN Star AS t3 ON t1.objid = t3.objid WHERE t0.ra BETWEEN 24.786529 AND 159.895627",
	"SELECT run_id, group_id, id, concentration FROM u000_field_sequences WHERE group_id < 6.07 AND concentration LIKE '%test%' ORDER BY group_id",
	"SELECT station, min(taxon) FROM u000_measurements GROUP BY station",
	"SELECT * FROM PhotoTag WHERE objId=0x112d0c8b4a2e0123",
	"EXEC dbo.spGetNeighbors 185.02, -1.3, 0.57",
	"SELECT objid FROM PhotoObj WHERE flags & dbo.fPhotoFlags('SATURATED') > 0",
	"SELECT j.target, cast(j.estimate AS varchar) AS queue FROM Jobs j, Users u,\n (SELECT DISTINCT target, queue FROM Servers s1 WHERE s1.name NOT IN\n  (SELECT name FROM Servers s,\n    (SELECT target, min(queue) AS queue FROM Servers GROUP BY target) AS a\n   WHERE a.target = s.target)) b\n WHERE j.outputtype LIKE '%QUERY%' AND j.uid = u.id",
	"how do I find all galaxies near m31?",
	"SELECT TOP 100 * FROM u002_sensor_readings",
}

// FuzzLexMatchesRunes is the differential behind the byte lexer: on any
// input, the tokens lexState.lex produces must equal those of runeLex,
// the rune lexer it replaced, in kind, text and rune position. The
// seeds add to the package's test literals the inputs where a byte walk
// and a rune walk could part: invalid UTF-8, multi-byte letters, digits
// and spaces, and literals, comments and numbers cut off by the end of
// input.
func FuzzLexMatchesRunes(f *testing.F) {
	for _, s := range testLiterals(f) {
		f.Add(s)
	}
	for _, s := range generatedStatements {
		f.Add(s)
	}
	for _, s := range []string{
		// Invalid UTF-8: each bad byte is one U+FFFD rune.
		"SELECT \xff FROM t", "\xc3", "a\xe2\x82", "'\xff\xfe'", "[\xff]", "-- \xff\n x",
		"\xed\xa0\x80", "é\xffé", "\xf4\x90\x80\x80", "\xc0\xaf", "x\x80y",
		// Multi-byte letters, digits and spaces.
		"SELECT naïve, 数据 FROM tâble", "١٢٣", "x١", "0x١f", "1e٣", "٣.5e+2",
		"\u2003SELECT\u00a0a\u3000FROM\u0085t\u2028", "1e\u0663", "€", "a€b", "'é''ü'",
		// Literals, comments and numbers cut off by the end of input.
		"/* abc", "/*", "/*/", "/**/x", "'abc", "'", "\"abc", "\"", "[abc", "[",
		"SELECT 1 --", "--", "-", "1e+", "1e", "1E-", "0x", "0X", "1.2.3", "1e5e6", "1.e",
		"''", "'''", "'it''s'", "'a''", "<=>=<>!=||!<!>", "a!b", "!",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		want := runeLex(input)
		var st lexState
		st.lex(input)
		if len(st.toks) != len(want) {
			t.Fatalf("lex(%q): %d tokens, rune lexer %d", input, len(st.toks), len(want))
		}
		for i, w := range want {
			if g := st.toks[i]; g != w {
				t.Fatalf("lex(%q) token %d: got %+v, rune lexer %+v", input, i, g, w)
			}
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// testLiterals returns every string literal in this package's test
// files: the parser and feature tests' inputs (and, harmlessly, their
// messages) as seeds.
func testLiterals(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		var sc scanner.Scanner
		sc.Init(fset.AddFile(name, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := sc.Scan()
			if tok == token.EOF {
				break
			}
			if tok != token.STRING {
				continue
			}
			if s, err := strconv.Unquote(lit); err == nil && s != "" {
				out = append(out, s)
			}
		}
	}
	return out
}
