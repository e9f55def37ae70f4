package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Loader parses and type-checks the packages of one module using only
// the standard library. Packages inside the module are loaded from
// source under ModuleRoot; everything else (the standard library)
// comes from go/importer's source importer, so no export data, build
// cache or external tooling is required.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	std      types.ImporterFrom
	imports  map[string]*types.Package // memoized import views (no test files)
	loading  map[string]bool           // cycle guard
	parsed   map[string]*ast.File
	excluded map[string]bool // files dropped by build constraints
	typeErrs []Diagnostic
}

// The source importer consults go/build's default context. Cgo is
// force-disabled so packages like net resolve to their pure-Go
// fallbacks instead of shelling out to a C toolchain; harelint
// analyzes the same files either way, since the repo has no cgo.
var disableCgo sync.Once

// NewLoader builds a loader for the module rooted at root.
func NewLoader(root, modulePath string) *Loader {
	disableCgo.Do(func() { build.Default.CgoEnabled = false })
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModulePath: modulePath,
		ModuleRoot: root,
		imports:    make(map[string]*types.Package),
		loading:    make(map[string]bool),
		parsed:     make(map[string]*ast.File),
		excluded:   make(map[string]bool),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l
}

// LoadModule locates the enclosing go.mod from dir and returns a
// loader for that module.
func LoadModule(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return NewLoader(root, module), nil
}

func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// TypeErrors drains the type-check diagnostics accumulated while
// loading (import views included).
func (l *Loader) TypeErrors() []Diagnostic {
	out := l.typeErrs
	l.typeErrs = nil
	return out
}

// Unit is one type-checked analysis unit: either a package together
// with its in-package test files, or a package's external _test
// package.
type Unit struct {
	// ImportPath identifies the unit ("hare/internal/sim", with a
	// "_test" suffix for external test packages).
	ImportPath string
	// PolicyPath is the path the policy table is keyed by — the
	// package's import path for both unit kinds.
	PolicyPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Import implements types.Importer: module packages load from source,
// the rest falls through to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	moduleDir, ok := l.moduleDir(path)
	if !ok {
		return l.std.ImportFrom(path, dir, 0)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDirFiles(moduleDir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", moduleDir)
	}
	pkg, diags := l.check(l, path, files, nil)
	l.typeErrs = append(l.typeErrs, diags...)
	l.imports[path] = pkg
	if pkg == nil {
		return nil, fmt.Errorf("type-checking %s failed", path)
	}
	return pkg, nil
}

// moduleDir maps an import path inside the module to its directory.
func (l *Loader) moduleDir(path string) (string, bool) {
	var dir string
	switch {
	case path == l.ModulePath:
		dir = l.ModuleRoot
	case strings.HasPrefix(path, l.ModulePath+"/"):
		dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(path[len(l.ModulePath)+1:]))
	default:
		return "", false
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return "", false
	}
	return dir, true
}

// LoadDir parses and type-checks the package in dir, returning one
// unit for the package (compiled files + in-package tests) and, when
// present, one for its external test package.
func (l *Loader) LoadDir(dir string) ([]*Unit, []Diagnostic, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModulePath)
	}
	importPath := l.ModulePath
	if rel != "." {
		importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
	}

	all, err := l.parseDirFiles(abs, true)
	if err != nil {
		return nil, nil, err
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	// Split into the compiled package (+ in-package tests) and the
	// external test package.
	baseName := ""
	for _, f := range all {
		if !strings.HasSuffix(l.filename(f), "_test.go") {
			baseName = f.Name.Name
			break
		}
	}
	if baseName == "" { // test-only directory
		baseName = strings.TrimSuffix(all[0].Name.Name, "_test")
	}
	var base, xtest []*ast.File
	var diags []Diagnostic
	for _, f := range all {
		switch f.Name.Name {
		case baseName:
			base = append(base, f)
		case baseName + "_test":
			xtest = append(xtest, f)
		default:
			pos := l.Fset.Position(f.Package)
			diags = append(diags, Diagnostic{
				Path: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: "typecheck", Severity: SevError,
				Message: fmt.Sprintf("package %s found alongside %s", f.Name.Name, baseName),
			})
		}
	}

	var units []*Unit
	var basePkg *types.Package
	if len(base) > 0 {
		info := newInfo()
		var ds []Diagnostic
		basePkg, ds = l.check(l, importPath, base, info)
		diags = append(diags, ds...)
		units = append(units, &Unit{
			ImportPath: importPath, PolicyPath: importPath,
			Dir: abs, Files: base, Pkg: basePkg, Info: info,
		})
	}
	if len(xtest) > 0 {
		info := newInfo()
		x := xtestImporter{l, importPath, make(map[string]*types.Package)}
		if len(base) > 0 {
			x.imports[importPath] = basePkg
		}
		pkg, ds := l.check(x, importPath+"_test", xtest, info)
		diags = append(diags, ds...)
		units = append(units, &Unit{
			ImportPath: importPath + "_test", PolicyPath: importPath,
			Dir: abs, Files: xtest, Pkg: pkg, Info: info,
		})
	}
	return units, diags, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

func (l *Loader) filename(f *ast.File) string {
	return l.Fset.Position(f.Package).Filename
}

// xtestImporter resolves an external test package's imports as go test
// builds them: the package under test (path) comes with its in-package
// test files, so the hooks an export_test.go declares resolve, and a
// module package that imports it, directly or not, is type-checked
// again against that view, so the test sees one type per declaration.
type xtestImporter struct {
	*Loader
	path    string
	imports map[string]*types.Package
}

var _ types.ImporterFrom = xtestImporter{}

func (x xtestImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := x.imports[path]; ok {
		return pkg, nil
	}
	plain, err := x.Loader.ImportFrom(path, dir, mode)
	if err != nil || !x.dependsOn(plain) {
		return plain, err
	}
	moduleDir, _ := x.moduleDir(path)
	files, err := x.parseDirFiles(moduleDir, false)
	if err != nil {
		return nil, err
	}
	pkg, diags := x.check(x, path, files, nil)
	x.typeErrs = append(x.typeErrs, diags...)
	x.imports[path] = pkg
	return pkg, nil
}

// dependsOn reports whether pkg imports the package under test, directly
// or through other module packages.
func (x xtestImporter) dependsOn(pkg *types.Package) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == x.path {
			return true
		}
		if _, inModule := x.moduleDir(imp.Path()); inModule && x.dependsOn(imp) {
			return true
		}
	}
	return false
}

// check type-checks one file set, converting type errors into
// diagnostics instead of failing.
func (l *Loader) check(imp types.ImporterFrom, path string, files []*ast.File, info *types.Info) (*types.Package, []Diagnostic) {
	var diags []Diagnostic
	conf := types.Config{
		Importer:    imp,
		FakeImportC: true,
		Error: func(err error) {
			te, ok := err.(types.Error)
			if !ok {
				diags = append(diags, Diagnostic{
					Path: path, Analyzer: "typecheck", Severity: SevError, Message: err.Error(),
				})
				return
			}
			pos := te.Fset.Position(te.Pos)
			diags = append(diags, Diagnostic{
				Path: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: "typecheck", Severity: SevError, Message: te.Msg,
			})
		},
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	return pkg, diags
}

// parseDirFiles parses the buildable Go files of dir (sorted by name
// for determinism), honoring //go:build constraints.
func (l *Loader) parseDirFiles(dir string, includeTests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := l.parseFile(filepath.Join(dir, name))
		if err != nil {
			// Parser errors already carry file:line in their text.
			l.typeErrs = append(l.typeErrs, Diagnostic{
				Path: filepath.Join(dir, name), Analyzer: "typecheck",
				Severity: SevError, Message: "parse error: " + err.Error(),
			})
			continue
		}
		if f != nil {
			files = append(files, f)
		}
	}
	return files, nil
}

// parseFile parses one file (memoized); it returns (nil, nil) for
// files excluded by build constraints.
func (l *Loader) parseFile(path string) (*ast.File, error) {
	if l.excluded[path] {
		return nil, nil
	}
	if f, ok := l.parsed[path]; ok {
		return f, nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !buildable(string(src)) {
		l.excluded[path] = true
		return nil, nil
	}
	f, err := parser.ParseFile(l.Fset, path, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	l.parsed[path] = f
	return f, nil
}

// buildable evaluates a leading //go:build (or legacy // +build)
// constraint against the host platform with cgo and race off —
// matching the view `go build` takes of this repo in CI.
func buildable(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if expr, err := constraint.Parse(trimmed); err == nil {
				return expr.Eval(buildTag)
			}
			continue
		}
		break // reached package clause (or real code): no constraint
	}
	return true
}

func buildTag(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc", "unix":
		return true
	}
	// Treat every released language version as available.
	return strings.HasPrefix(tag, "go1")
}

// Expand resolves go-style package patterns ("./...", "./internal/sim")
// relative to base into package directories. Hidden, underscore,
// testdata and vendor directories are skipped.
func Expand(base string, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	appendDir := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			root := filepath.Join(base, filepath.FromSlash(rest))
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					appendDir(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := filepath.Join(base, filepath.FromSlash(pat))
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		appendDir(dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}
