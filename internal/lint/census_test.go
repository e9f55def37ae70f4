package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
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
// the knob, dead-surface and observability censuses share. files are
// the non-test files loadCensus returns; tests are the _test.go files,
// which only the observability census reads.
var censusModule struct {
	once   sync.Once
	loader *Loader
	files  []censusFile
	tests  []censusFile
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
					cf := censusFile{u, f, filepath.ToSlash(name)}
					if strings.HasSuffix(name, "_test.go") {
						m.tests = append(m.tests, cf)
					} else {
						m.files = append(m.files, cf)
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

// censusAllowed are the settable values and defaulted parameters the
// knob census convicts but that stay, each with the reason. An entry
// the census no longer convicts, or whose field or parameter is gone,
// fails the census too, so the list cannot rot.
var censusAllowed = map[string]string{
	"hare/internal/profile.Options.MeasureJitter":           "the only consumer of Options.Seed, which bench/e2e/inputs.go sets; it cannot go before a benchmark-only PR drops that Seed",
	"hare/internal/experiments.Fig12Options.TestbedSchemes": "what keeps Fig. 12's tier-1 test at two testbed schemes instead of five wall-clock runs",
	"hare/internal/obs/perf.Fingerprint.commit":             "its only caller, bench/e2e/main.go, passes \"\"; goes with the next change to the benchmark",
}

// TestKnobCensus: the repo's settable values — every exported field of
// every exported struct under internal/ whose name ends in Options,
// Config or Backend, and of every exported struct of internal/sched (a
// scheduler's fields are its knobs) — and its defaulted parameters each
// take more than one value in production: files that are neither tests
// nor examples (bench/e2e and cmd/ count). Three rules:
//
//   - A. A write is a keyed or positional literal, an assignment, or an
//     address taken. A write of the zero value (nil, 0, false, "") does
//     not count, nor does a default fill: an assignment inside an if
//     whose condition tests the same expression against its zero value
//     (== 0, <= 0, < 1, == nil, == "", len(…) == 0). A field with no
//     write that counts is set by nothing.
//   - B. A field whose counted writes all assign the same constant (a
//     literal, a named constant or a function), and that every
//     production literal of its struct sets, has one value in use. A
//     literal that leaves the field out, or a zero write, puts the zero
//     value in use too.
//   - C. A parameter of a function declared under internal/ or in
//     hare.go has a default when its body fills it (rule A's shapes) or
//     passes it unchanged to a parameter with a default. It has one
//     value in use when every production call site passes a constant
//     and the constants are equal — zero, taking the default, included.
//     A function used as a value has callers the census cannot see; a
//     method an interface of the module declares has its signature fixed.
//
// A knob with one value in use is a configuration only tests turn: make
// it a constant, or list it in censusAllowed with the reason.
func TestKnobCensus(t *testing.T) {
	files := loadCensus(t)
	loader := censusModule.loader
	var production []censusFile
	for _, cf := range files {
		if !strings.HasPrefix(cf.name, "examples/") {
			production = append(production, cf)
		}
	}
	ifaces := moduleInterfaces(files, loader.imports)
	c := takeKnobCensus(loader.Fset, loader.ModulePath, production, func(m *types.Func) bool {
		return fixedByInterface(m, ifaces, loader.imports)
	})
	if len(c.fields) < 50 {
		t.Fatalf("census found only %d settable values; the scope rule no longer matches the repo", len(c.fields))
	}

	var complaints []string
	//lint:ordered complaints are sorted before they are reported
	for key, why := range c.convicted {
		if _, allowed := censusAllowed[key]; !allowed {
			pos, _ := c.pos(key)
			complaints = append(complaints, fmt.Sprintf("%s: %s %s: make it a constant, or allow it with a reason", pos, key, why))
		}
	}
	//lint:ordered complaints are sorted before they are reported
	for key, reason := range censusAllowed {
		if _, ok := c.convicted[key]; ok {
			continue
		}
		if pos, ok := c.pos(key); ok {
			complaints = append(complaints, fmt.Sprintf("%s: %s takes more than one value in production now; drop its censusAllowed entry (%s)", pos, key, reason))
		} else {
			complaints = append(complaints, fmt.Sprintf("censusAllowed lists %s, which is no settable value or defaulted parameter", key))
		}
	}
	sort.Strings(complaints)
	for _, c := range complaints {
		t.Error(c)
	}
	t.Logf("%d settable values and %d defaulted parameters in scope, %d convicted, %d allowed", len(c.fields), len(c.params), len(c.convicted), len(censusAllowed))
}

// knobCensus is what rules A–C find over a set of production files.
type knobCensus struct {
	fields    map[string]token.Position // "pkgpath.Type.Field" → declaration
	params    map[string]token.Position // defaulted "pkgpath.Func.param" or "pkgpath.Type.Method.param"
	convicted map[string]string         // field or parameter → why it has one value in use
}

// pos is where the field or defaulted parameter key is declared.
func (c knobCensus) pos(key string) (token.Position, bool) {
	if p, ok := c.fields[key]; ok {
		return p, true
	}
	p, ok := c.params[key]
	return p, ok
}

// valueUse is what production does with one field or parameter.
type valueUse struct {
	values   map[string]bool // the constants counted writes or arguments pass, by constKey
	variable bool            // a counted write or an argument is no constant
	zero     bool            // the zero value is in use (fields)
	sites    int             // call sites (parameters)
}

// takeKnobCensus applies rules A–C to files, the production files of
// a module. fixed reports whether an interface fixes a method's
// signature.
func takeKnobCensus(fset *token.FileSet, modulePath string, files []censusFile, fixed func(*types.Func) bool) knobCensus {
	internal := modulePath + "/internal/"
	c := knobCensus{fields: make(map[string]token.Position), params: make(map[string]token.Position), convicted: make(map[string]string)}
	uses := make(map[string]*valueUse)
	use := func(key string) *valueUse {
		u := uses[key]
		if u == nil {
			u = &valueUse{values: make(map[string]bool)}
			uses[key] = u
		}
		return u
	}
	declared := make(map[string]token.Position) // parameters of in-scope functions
	methods := make(map[string]*types.Func)     // their functions, when methods
	defaulted := make(map[string]bool)
	forwards := make(map[string][]string) // parameter → the parameters it is passed to unchanged
	for _, cf := range files {
		info := cf.unit.Info
		if strings.HasPrefix(cf.unit.ImportPath, internal) {
			declaredKnobs(fset, cf.unit.ImportPath, cf.file, c.fields)
		}
		params := make(map[types.Object]string)
		if strings.HasPrefix(cf.unit.ImportPath, internal) || cf.name == "hare.go" {
			for _, d := range cf.file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				sig := fn.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					if key := paramKey(fn, i); key != "" {
						params[sig.Params().At(i)] = key
						declared[key] = fset.Position(sig.Params().At(i).Pos())
						if sig.Recv() != nil {
							methods[key] = fn
						}
					}
				}
			}
		}
		valueWrites(info, cf.file, params, use, defaulted, forwards)
	}

	// A parameter passed unchanged to one with a default has one too.
	for grew := true; grew; {
		grew = false
		//lint:ordered a fixed point does not depend on visiting order
		for from, tos := range forwards {
			for _, to := range tos {
				if !defaulted[from] && defaulted[to] {
					defaulted[from], grew = true, true
				}
			}
		}
	}
	//lint:ordered the loop only fills a map
	for key, pos := range declared {
		if defaulted[key] && (methods[key] == nil || !fixed(methods[key])) {
			c.params[key] = pos
		}
	}

	//lint:ordered the loop only fills a map
	for key := range c.fields {
		u := use(key)
		switch {
		case !u.variable && len(u.values) == 0:
			c.convicted[key] = "is set by no file outside tests and examples (zero writes and default fills do not count)"
		case !u.variable && len(u.values) == 1 && !u.zero:
			c.convicted[key] = "is set to " + onlyValue(u.values) + " by every production write and literal"
		}
	}
	//lint:ordered the loop only fills a map
	for key := range c.params {
		if u := use(key); u.sites > 0 && !u.variable && len(u.values) == 1 {
			c.convicted[key] = "has a default, and every production call passes " + onlyValue(u.values)
		}
	}
	return c
}

// valueWrites records what f writes to fields and passes to parameters
// (rule A: zero writes and default fills are not counted), the zero
// values its literals leave in fields, and, for params — the
// parameters of the in-scope functions f declares — which ones f
// fills by default and which it forwards unchanged to another call.
// Fields and functions are keyed by package path and name rather than
// by types.Object: a package's own unit and the import view other
// packages see of it are distinct types.Packages.
func valueWrites(info *types.Info, f *ast.File, params map[types.Object]string, use func(string) *valueUse, defaulted map[string]bool, forwards map[string][]string) {
	fills := make(map[ast.Expr]bool) // left-hand sides of default fills
	called := make(map[*ast.Ident]bool)
	write := func(key string, value ast.Expr) {
		switch {
		case key == "":
		case value == nil:
			use(key).variable = true
		case isZero(info, value):
			use(key).zero = true
		default:
			if v, ok := constKey(info, value); ok {
				use(key).values[v] = true
			} else {
				use(key).variable = true
			}
		}
	}
	field := func(e ast.Expr) string {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return fieldKey(s.Recv(), sel.Sel.Name)
			}
		}
		return ""
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if x := zeroTested(info, n.Cond); x != nil {
				want := types.ExprString(x)
				ast.Inspect(n.Body, func(n ast.Node) bool {
					if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
						for _, lhs := range as.Lhs {
							if types.ExprString(lhs) == want {
								fills[lhs] = true
							}
						}
					}
					return true
				})
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if t == nil {
				return true
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			set := make(map[string]bool)
			for i, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						set[id.Name] = true
						write(fieldKey(t, id.Name), kv.Value)
					}
				} else if i < st.NumFields() {
					set[st.Field(i).Name()] = true
					write(fieldKey(t, st.Field(i).Name()), el)
				}
			}
			for i := 0; i < st.NumFields(); i++ {
				if name := st.Field(i).Name(); !set[name] {
					if key := fieldKey(t, name); key != "" {
						use(key).zero = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if fills[lhs] {
					if id, ok := lhs.(*ast.Ident); ok && params[info.Uses[id]] != "" {
						defaulted[params[info.Uses[id]]] = true
					}
					continue
				}
				var value ast.Expr
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					value = n.Rhs[i]
				}
				write(field(lhs), value)
			}
		case *ast.IncDecStmt:
			write(field(n.X), nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(field(n.X), nil)
			}
		case *ast.CallExpr:
			id := calleeIdent(n)
			fn, _ := info.Uses[id].(*types.Func)
			if fn == nil {
				return true
			}
			called[id] = true
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				key := paramKey(fn, i)
				if key == "" {
					continue
				}
				use(key).sites++
				if i >= len(n.Args) || !sig.Variadic() && len(n.Args) != sig.Params().Len() {
					write(key, nil)
					continue
				}
				arg := ast.Unparen(n.Args[i])
				if a, ok := arg.(*ast.Ident); ok && params[info.Uses[a]] != "" {
					from := params[info.Uses[a]]
					forwards[from] = append(forwards[from], key)
				}
				if v, ok := constKey(info, arg); ok {
					use(key).values[v] = true
				} else {
					use(key).variable = true
				}
			}
		case *ast.Ident:
			// A function used as a value has callers the census cannot see.
			if fn, ok := info.Uses[n].(*types.Func); ok && !called[n] {
				for i := 0; i < fn.Type().(*types.Signature).Params().Len(); i++ {
					write(paramKey(fn, i), nil)
				}
			}
		}
		return true
	})
}

// fieldKey names field of struct type t (or *t) by package path, type
// name and field name; "" when t is no named type of a package.
func fieldKey(t types.Type, field string) string {
	if p, ok := types.Unalias(t).Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
	}
	return ""
}

// paramKey names fn's i-th parameter after fn (see objectKey); "" for
// a variadic, blank or unnamed parameter.
func paramKey(fn *types.Func, i int) string {
	sig := fn.Origin().Type().(*types.Signature)
	if i >= sig.Params().Len() || sig.Variadic() && i == sig.Params().Len()-1 {
		return ""
	}
	name := sig.Params().At(i).Name()
	key := objectKey(fn)
	if key == "" || name == "" || name == "_" {
		return ""
	}
	return key + "." + name
}

// calleeIdent is the identifier naming the function call calls, or nil.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // an explicit instantiation
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// zeroTested is the expression cond tests against its zero value —
// x == 0, x <= 0, x < 1, x == nil, x == "" or len(x) == 0 — or nil.
func zeroTested(info *types.Info, cond ast.Expr) ast.Expr {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	tv := info.Types[b.Y]
	switch {
	case (b.Op == token.EQL || b.Op == token.LEQ) && isZero(info, b.Y):
	case b.Op == token.LSS && tv.Value != nil && constant.Compare(tv.Value, token.EQL, constant.MakeInt64(1)):
	default:
		return nil
	}
	x := ast.Unparen(b.X)
	if call, ok := x.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "len" {
			if _, ok := info.Uses[id].(*types.Builtin); ok {
				return ast.Unparen(call.Args[0])
			}
		}
	}
	return x
}

// isZero reports whether e is nil or a constant zero, false or "".
func isZero(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.IsNil() {
		return true
	}
	switch v := tv.Value; {
	case v == nil:
		return false
	case v.Kind() == constant.Bool:
		return !constant.BoolVal(v)
	case v.Kind() == constant.String:
		return constant.StringVal(v) == ""
	default:
		return constant.Sign(v) == 0
	}
}

// constKey renders e when it is a constant expression — nil, a literal
// or named constant, or a named function — so that equal constants
// render equal.
func constKey(info *types.Info, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	tv := info.Types[e]
	switch {
	case tv.IsNil():
		return "nil", true
	case tv.Value != nil:
		return tv.Value.ExactString(), true
	}
	var id *ast.Ident
	switch e := e.(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	}
	if fn, ok := info.Uses[id].(*types.Func); ok && objectKey(fn) != "" {
		return objectKey(fn), true
	}
	return "", false
}

// onlyValue is the one key of a one-key set.
func onlyValue(values map[string]bool) string {
	//lint:ordered the set has one key
	for v := range values {
		return v
	}
	return ""
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

// knobRulesSrc exercises rules A–C, one case per field or function.
const knobRulesSrc = `package k

type Options struct {
	Filled  int   // set only by its default fill: convicted
	Zeroed  []int // set only to nil: convicted
	One     bool  // every write and literal sets true: convicted
	Omitted bool  // true where set, but a literal leaves it out: kept
	Clamped int   // set only by a clamp, which is no fill: kept
}

func (o *Options) defaults() {
	if o.Filled == 0 {
		o.Filled = 3
	}
	if o.Clamped > 10 {
		o.Clamped = 10
	}
	o.Zeroed = nil
	o.One = true
}

func sweep(points []int) int { // filled, every caller passes nil: convicted
	if len(points) == 0 {
		points = []int{1, 2}
	}
	return len(points)
}

func run(n int) int { return depth(n) } // forwards to a default, callers pass 0: convicted

func depth(n int) int { // filled, but one caller passes a variable: kept
	if n <= 0 {
		n = 5
	}
	return n
}

func use(k int) int { // forwards to a default, but has no caller: kept
	o := Options{One: true, Omitted: true}
	o.defaults()
	p := &Options{One: true}
	p.defaults()
	return sweep(nil) + sweep(nil) + run(0) + run(0) + depth(k)
}
`

// TestKnobCensusRules runs rules A–C on knobRulesSrc, type-checked in
// memory as a package under internal/.
func TestKnobCensusRules(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "k.go", knobRulesSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	if _, err := (&types.Config{}).Check("m/internal/k", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	files := []censusFile{{unit: &Unit{ImportPath: "m/internal/k", Info: info}, file: f, name: "internal/k/k.go"}}
	c := takeKnobCensus(fset, "m", files, func(*types.Func) bool { return false })

	keys := func(m map[string]token.Position) []string {
		var out []string
		//lint:ordered the keys are sorted
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if got, want := keys(c.fields), []string{"m/internal/k.Options.Clamped", "m/internal/k.Options.Filled", "m/internal/k.Options.Omitted", "m/internal/k.Options.One", "m/internal/k.Options.Zeroed"}; !slices.Equal(got, want) {
		t.Errorf("fields in scope = %v, want %v", got, want)
	}
	if got, want := keys(c.params), []string{"m/internal/k.depth.n", "m/internal/k.run.n", "m/internal/k.sweep.points", "m/internal/k.use.k"}; !slices.Equal(got, want) {
		t.Errorf("defaulted parameters = %v, want %v", got, want)
	}
	var convicted []string
	//lint:ordered the keys are sorted
	for k := range c.convicted {
		convicted = append(convicted, k)
	}
	sort.Strings(convicted)
	if want := []string{"m/internal/k.Options.Filled", "m/internal/k.Options.One", "m/internal/k.Options.Zeroed", "m/internal/k.run.n", "m/internal/k.sweep.points"}; !slices.Equal(convicted, want) {
		t.Errorf("convicted = %v, want %v", convicted, want)
	}
}
