package simdb_test

import (
	"fmt"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/simdb"
	"repro/internal/sqlparse"
)

// FuzzExecute holds the labeller to its pure-function contract on any
// input against the SDSS catalog: Execute does not panic and gives the
// same Result twice, and the `opt` estimate and the syntactic features
// of the same statement do not panic either. Every statement that
// parses binds as the reference binder (bindref_test.go) binds it: both
// succeed, or both fail on the same name. It is seeded with the string
// literals of the parser's tests and the binding edge cases.
func FuzzExecute(f *testing.F) {
	for _, s := range parserTestStatements(f) {
		f.Add(s)
	}
	for _, c := range bindingEdgeCases {
		f.Add(c.query)
	}
	cat := simdb.NewSDSSCatalog()
	en := simdb.NewEngine(cat)
	opt := simdb.Optimizer{Catalog: cat}
	f.Fuzz(func(t *testing.T, query string) {
		first, second := en.Execute(query), en.Execute(query)
		if !sameResult(first, second) {
			t.Fatalf("Execute(%q) is not a function of its input: %+v, then %+v", query, first, second)
		}
		opt.EstimateCost(query)
		sqlparse.ExtractFeatures(query)
		stmts, err := sqlparse.Parse(query)
		if err != nil {
			return
		}
		for _, s := range stmts {
			if got, want := cat.Analyze(s), refAnalyze(cat, s); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("Analyze(%q) = %v, reference binder %v", query, got, want)
			}
		}
	})
}

// parserTestStatements returns the non-empty string literals of the
// sqlparse package's test files.
func parserTestStatements(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "sqlparse", "*_test.go"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no sqlparse test files found (%v)", err)
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
