package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// censusFile is one non-test file of the module with the type-checked
// unit it belongs to.
type censusFile struct {
	unit *Unit
	file *ast.File
	name string // module-relative, slash-separated
}

// censusModule is the one whole-module load (≈ 3 s of type-checking)
// the knob census and the dead-surface census share.
var censusModule struct {
	once   sync.Once
	loader *Loader
	files  []censusFile
	err    error
}

func loadCensus(t *testing.T) []censusFile {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	m := &censusModule
	m.once.Do(func() {
		if m.loader, m.err = LoadModule("."); m.err != nil {
			return
		}
		var dirs []string
		if dirs, m.err = Expand(m.loader.ModuleRoot, []string{"./..."}); m.err != nil {
			return
		}
		for _, dir := range dirs {
			units, diags, err := m.loader.LoadDir(dir)
			if err != nil {
				m.err = err
				return
			}
			for _, d := range diags {
				if d.Severity == SevError {
					m.err = fmt.Errorf("%s", d.String())
					return
				}
			}
			for _, u := range units {
				for _, f := range u.Files {
					name, err := filepath.Rel(m.loader.ModuleRoot, m.loader.filename(f))
					if err != nil {
						m.err = err
						return
					}
					if !strings.HasSuffix(name, "_test.go") {
						m.files = append(m.files, censusFile{u, f, filepath.ToSlash(name)})
					}
				}
			}
		}
	})
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.files
}

// censusAllowed are the settable values no production code sets, each
// with the reason it still exists. An entry that is set after all, or
// whose field is gone, fails the census too, so the list cannot rot.
var censusAllowed = map[string]string{
	"hare/internal/sim.Options.JitterFrac":                  "its draws fix the RNG order of the jittered seed-42 golden, which the fault streams share; removing it moves that golden",
	"hare/internal/sim.Options.HostAwareSync":               "part of the jittered seed-42 golden's configuration (same-host sync shrink); removing it moves that golden",
	"hare/internal/profile.Options.MeasureJitter":           "the only consumer of Options.Seed, which bench/e2e/inputs.go sets; it cannot go before a benchmark-only PR drops that Seed",
	"hare/internal/experiments.Fig12Options.TestbedSchemes": "what keeps Fig. 12's tier-1 test at two testbed schemes instead of five wall-clock runs",
}

// TestKnobCensus: every exported field of every exported struct under
// internal/ whose name ends in Options, Config or Backend, and of every
// exported struct of internal/sched (a scheduler's fields are its
// knobs) — the repo's settable values — is written (keyed or positional literal, assignment,
// or address taken) by at least one file that is neither a test nor an
// example. A knob only tests turn is a configuration the benchmarks and
// the CLIs never run: delete it, or list it in censusAllowed with the
// reason.
func TestKnobCensus(t *testing.T) {
	files := loadCensus(t)
	internal := censusModule.loader.ModulePath + "/internal/"
	knobs := make(map[string]token.Position) // "pkgpath.Type.Field" → declaration
	written := make(map[string]bool)
	for _, cf := range files {
		if strings.HasPrefix(cf.name, "examples/") {
			continue
		}
		if strings.HasPrefix(cf.unit.ImportPath, internal) {
			declaredKnobs(censusModule.loader.Fset, cf.unit.ImportPath, cf.file, knobs)
		}
		fieldWrites(cf.unit.Info, cf.file, written)
	}
	if len(knobs) < 50 {
		t.Fatalf("census found only %d settable values; the scope rule no longer matches the repo", len(knobs))
	}

	var complaints []string
	//lint:ordered complaints are sorted before they are reported
	for key, pos := range knobs {
		reason, allowed := censusAllowed[key]
		switch {
		case !written[key] && !allowed:
			complaints = append(complaints, fmt.Sprintf("%s: %s is set by no file outside tests and examples: delete it, or allow it with a reason", pos, key))
		case written[key] && allowed:
			complaints = append(complaints, fmt.Sprintf("%s: %s is set by production code now; drop its censusAllowed entry (%s)", pos, key, reason))
		}
	}
	//lint:ordered complaints are sorted before they are reported
	for key := range censusAllowed {
		if _, ok := knobs[key]; !ok {
			complaints = append(complaints, fmt.Sprintf("censusAllowed lists %s, which no longer exists", key))
		}
	}
	sort.Strings(complaints)
	for _, c := range complaints {
		t.Error(c)
	}
	t.Logf("%d settable values in scope, %d allowed unset", len(knobs), len(censusAllowed))
}

// declaredKnobs records the exported fields of f's exported
// *Options/*Config/*Backend structs, and of any exported struct when f
// is a file of internal/sched.
func declaredKnobs(fset *token.FileSet, pkgPath string, f *ast.File, knobs map[string]token.Position) {
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || !ts.Name.IsExported() {
			return true
		}
		name := ts.Name.Name
		if !strings.HasSuffix(pkgPath, "/internal/sched") &&
			!strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Backend") {
			return true
		}
		for _, field := range st.Fields.List {
			for _, id := range field.Names {
				if id.IsExported() {
					knobs[pkgPath+"."+name+"."+id.Name] = fset.Position(id.Pos())
				}
			}
		}
		return true
	})
}

// fieldWrites marks every struct field f writes. Fields are keyed by
// package path, type name and field name rather than by types.Object: a
// package's own unit and the import view other packages see of it are
// distinct types.Packages.
func fieldWrites(info *types.Info, f *ast.File, written map[string]bool) {
	mark := func(t types.Type, field string) {
		if p, ok := types.Unalias(t).Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj().Pkg() != nil {
			written[named.Obj().Pkg().Path()+"."+named.Obj().Name()+"."+field] = true
		}
	}
	selector := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				mark(s.Recv(), sel.Sel.Name)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						mark(t, id.Name)
					}
				} else if i < st.NumFields() {
					mark(t, st.Field(i).Name())
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				selector(lhs)
			}
		case *ast.IncDecStmt:
			selector(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				selector(n.X)
			}
		}
		return true
	})
}
