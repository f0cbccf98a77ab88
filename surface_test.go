package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// This file guards the serving stack's surface, offline, from the
// source alone (go/parser; no build, no network):
//
//   - TestServingSurfaceMethods pins the exported method sets of
//     serve.Predictor and service.Service, so a new entry point is a
//     reviewed decision rather than an accretion;
//   - TestServingSurfaceOptions fails when a field of an option struct
//     is written by no program — nothing outside the declaring package,
//     tests and examples — because an option nobody sets is a constant
//     with extra configurations to test. The option structs are found
//     by name (optionStructs), so a new one is guarded the moment it is
//     declared. The few fields that are deliberately test-only are
//     listed in unsetAllowed with the reason;
//   - TestFacadeSurface pins the root package's exported names and
//     fails when one of them is used by no program under examples/: the
//     facade is those programs' path through the module, not a second
//     name for everything below it.

// pinnedMethods is the exported method set of each serving type.
var pinnedMethods = map[string][]string{
	"repro/internal/serve.Predictor": {
		"Close", "Model", "PredictLogBatchCtx", "PredictLogCtx", "ProbsBatchCtx", "ProbsIntoCtx", "Stats",
	},
	"repro/internal/service.Service": {
		"Close", "Control", "Deploy", "GC", "LiveVersion", "Models", "Observe", "Predict", "PredictBatch",
		"PredictInto", "Register", "SetOnlineStats", "StatsSnapshot", "Swap", "VersionModel", "WarmBoot",
		"WatchStore",
	},
}

// libraryOption is why repro/client's caller-facing knobs stay options
// though no program in this module sets them.
const libraryOption = "library option: the client's programs are the module's importers, and examples/service sets both"

// unsetAllowed lists option fields no program sets, with why each is
// still an option.
var unsetAllowed = map[string]string{
	"repro/client.Options.Timeout":            libraryOption,
	"repro/client.Options.Retries":            libraryOption,
	"repro/internal/wire.ClientOptions.Conns": "test seam: the pipelining tests pin one connection to force out-of-order replies onto it",
	"repro/client.Options.ProbeInterval":      "test seam: the cluster tests (and examples/cluster) shorten it so failover shows within a test's patience",
	"repro/internal/ingest.Options.Sync":      "durability setting: fsync after every append, for a deployment that cannot lose the unsynced tail of its feedback",
	"repro/internal/online.Options.Interval":  "test seam: the learner tests (and examples/online) poll the WAL's live edge every few milliseconds",
}

// sourceFile is one parsed non-test Go file of the module.
type sourceFile struct {
	pkgPath string // import path of the package the file belongs to
	ast     *ast.File
}

// moduleSources parses every non-test Go file outside examples/.
func moduleSources(t *testing.T) []sourceFile {
	t.Helper()
	var files []sourceFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || p == "examples") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, sourceFile{pkgPath: path.Join("repro", filepath.ToSlash(filepath.Dir(p))), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestServingSurfaceMethods(t *testing.T) {
	got := map[string][]string{}
	for _, f := range moduleSources(t) {
		for _, decl := range f.ast.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				key := f.pkgPath + "." + id.Name
				got[key] = append(got[key], fn.Name.Name)
			}
		}
	}
	for typ, want := range pinnedMethods {
		sort.Strings(got[typ])
		if strings.Join(got[typ], " ") != strings.Join(want, " ") {
			t.Errorf("%s exported methods changed:\n got  %v\n want %v\n"+
				"a new entry point must replace one, not join it; if this is deliberate, update pinnedMethods",
				typ, got[typ], want)
		}
	}
}

// optionStructs finds the guarded option types, keyed "pkg.Type": every
// exported struct type named Options or …Options declared outside
// bench/ (moduleSources already skips tests and examples/). Aliases
// such as the facade's re-exports are not struct types and are not
// found twice.
func optionStructs(files []sourceFile) map[string]*ast.StructType {
	structs := map[string]*ast.StructType{}
	for _, f := range files {
		if f.pkgPath == "repro/bench" || strings.HasPrefix(f.pkgPath, "repro/bench/") {
			continue
		}
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if ok && ts.Name.IsExported() && strings.HasSuffix(ts.Name.Name, "Options") {
					structs[f.pkgPath+"."+ts.Name.Name] = st
				}
			}
		}
	}
	return structs
}

func TestServingSurfaceOptions(t *testing.T) {
	files := moduleSources(t)
	guarded := optionStructs(files)

	// Declared fields of every guarded struct.
	fields := map[string]bool{} // "pkg.Type.Field" → set by some program
	for typ, st := range guarded {
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				fields[typ+"."+name.Name] = false
			}
		}
	}

	// Writes from outside the declaring package: keyed composite
	// literals, and assignments through a variable or parameter of the
	// struct's type. (Writes inside the declaring package are the
	// struct's own defaulting, not somebody choosing a value.)
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, imp := range f.ast.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		// typeOf resolves a type expression to "pkg.Type" when guarded.
		typeOf := func(e ast.Expr) string {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return ""
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return ""
			}
			if typ := imports[pkg.Name] + "." + sel.Sel.Name; guarded[typ] != nil {
				return typ
			}
			return ""
		}
		vars := map[string]string{} // variable name → "pkg.Type" (file-wide; good enough here)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if typ := typeOf(n.Type); typ != "" {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								fields[typ+"."+key.Name] = true
							}
						}
					}
				}
			case *ast.Field: // parameters and struct fields
				if typ := typeOf(n.Type); typ != "" {
					for _, name := range n.Names {
						vars[name.Name] = typ
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) {
						if lit, ok := n.Rhs[i].(*ast.CompositeLit); ok {
							if typ := typeOf(lit.Type); typ != "" {
								vars[id.Name] = typ
							}
						}
					}
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && vars[id.Name] != "" {
							fields[vars[id.Name]+"."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	for field, set := range fields {
		reason, allowed := unsetAllowed[field]
		switch {
		case !set && !allowed:
			t.Errorf("%s is set by no program (only tests, examples or its own defaulting touch it): "+
				"make it a constant, or add it to unsetAllowed with the reason it must stay an option", field)
		case set && allowed:
			t.Errorf("%s is now set by a program; drop it from unsetAllowed (%q)", field, reason)
		}
	}
	for field := range unsetAllowed {
		if _, ok := fields[field]; !ok {
			t.Errorf("unsetAllowed names %s, which no longer exists", field)
		}
	}
}

// pinnedFacade is the root package's exported names.
var pinnedFacade = []string{
	"ClientOptions", "DefaultConfig", "ErrorClassification", "FineTune",
	"GenerateSDSS", "IngestOptions", "NewClient", "NewDirStore", "NewService", "NewServiceHandler",
	"NewWireServer", "OnlineOptions", "OpenIngest", "ServeOptions", "Service", "ServiceOptions",
	"SplitRandom", "StartOnline", "Train", "WireServerOptions",
}

func TestFacadeSurface(t *testing.T) {
	var got []string
	for _, f := range moduleSources(t) {
		if f.pkgPath != "repro" {
			continue
		}
		for _, decl := range f.ast.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							got = append(got, spec.Name.Name)
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.IsExported() {
								got = append(got, name.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(pinnedFacade, " ") {
		t.Errorf("root package exported names changed:\n got  %v\n want %v\n"+
			"the facade holds what examples/ use and nothing else; if this is deliberate, update pinnedFacade",
			got, pinnedFacade)
	}

	// Every facade name is selected from the root package by an example.
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("examples/*/main.go: %v (%d files)", err, len(mains))
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, p := range mains {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := "" // the name this file imports the root package under
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro"` {
				local = "repro"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, name := range got {
		if !used[name] {
			t.Errorf("repro.%s is used by no program under examples/: callers reach it through its own package; delete the re-export", name)
		}
	}
}
