package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deadAllowed are the exported identifiers no non-test file references,
// each with the reason it still exists. Three classes: reference
// oracles that tests compare production code against, hare.go facade
// exports whose callers by design are hare_test.go, and accessors an
// external _test package needs to observe a state machine (none today).
// The list may only shrink. An entry that is referenced after all, or
// whose identifier is gone, fails the census too, so the list cannot rot.
var deadAllowed = map[string]string{
	"hare/internal/assign.BruteForce":                      "oracle: exhaustive assignment the Hungarian solver is tested against",
	"hare/internal/switching.PipelineStall":                "oracle: docs/CALIBRATION.md cross-check of the closed-form Cost",
	"hare/internal/switching.PipelinePlan.PipelineSpeedup": "oracle: docs/CALIBRATION.md cross-check of the closed-form Cost",
	"hare/internal/switching.CostDerived":                  "oracle: docs/CALIBRATION.md cross-check of the closed-form Cost",
	"hare/internal/obs/dtrace.Canonical":                   "oracle: the order-free rendering behind chaos/testdata/canonical_seed11.golden",
	"hare/internal/trace.WriteGoogleJobEvents":             "oracle: the job_events writer ReadGoogleJobEvents/LoadGoogleArrivals are round-trip-tested against",
	"hare.GoogleArrivals":                                  "facade: public API exercised by hare_test.go",
	"hare.SaveWorkload":                                    "facade: public API exercised by hare_test.go (the writer of what LoadWorkload reads)",
	"hare.RegisterModel":                                   "facade: public API exercised by hare_test.go",
	"hare.SyncTime":                                        "facade: public API exercised by hare_test.go",
}

// stdProtocol are method names the standard library calls through its
// own interfaces (error, fmt.Stringer, json.Marshaler, sort.Interface,
// heap.Interface, and go/types.Importer, which ImporterFrom embeds); no
// file of the module names them at a call site.
var stdProtocol = map[string]bool{
	"Import": true,
	"Error":  true, "Unwrap": true, "String": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestDeadSurfaceCensus: every exported package-level identifier,
// exported method and exported interface method declared in a non-test
// file under internal/ or in hare.go is referenced by at least one non-test file of the module
// (cmd/, examples/, bench/e2e and hare.go all count as callers). What
// only tests reference is surface a reader must rule out: delete it, or
// list it in deadAllowed with the reason. A reference from inside the
// declaration itself (recursion, a method naming its own receiver type)
// does not count. A method is exempt when an interface of the module
// that its receiver satisfies declares its name, when its receiver is
// handed to net/rpc (registered as a service, or passed as a codec to
// rpc.ServeCodec or rpc.NewClientWithCodec: net/rpc calls its methods
// through its own interfaces), when a `var _ I = v` assertion holds its
// receiver to an interface I that declares its name (a net.Listener's
// Accept is called through the interface), or when its name is a
// stdProtocol one.
func TestDeadSurfaceCensus(t *testing.T) {
	files := loadCensus(t)
	loader := censusModule.loader
	complaints, declared, dead := deadSurface(loader.Fset, loader.ModulePath, files, loader.imports, deadAllowed)
	if declared < 500 {
		t.Fatalf("census found only %d exported identifiers; the scope rule no longer matches the repo", declared)
	}
	for _, c := range complaints {
		t.Error(c)
	}
	t.Logf("%d exported identifiers in scope, %d dead, %d allowed unreferenced", declared, dead, len(deadAllowed))
}

// deadSurface takes the census of files, module's non-test files, and
// returns its complaints, sorted, with the count of exported
// identifiers in scope and of those dead. allowed is deadAllowed's
// shape.
func deadSurface(fset *token.FileSet, module string, files []censusFile, imports map[string]*types.Package,
	allowed map[string]string) ([]string, int, int) {
	internal := module + "/internal/"

	type decl struct {
		pos    token.Position
		method *types.Func // nil for package-level identifiers
	}
	declared := make(map[string]decl)
	used := make(map[string]bool)
	rpcTypes := make(map[string]bool)               // "pkgpath.Type" handed to net/rpc
	asserted := make(map[string][]*types.Interface) // "pkgpath.Type" → interfaces a var _ I = v holds it to

	for _, cf := range files {
		info := cf.unit.Info
		inScope := strings.HasPrefix(cf.unit.ImportPath, internal) || cf.name == "hare.go"
		for _, d := range cf.file.Decls {
			// own are the keys a reference from inside d does not count for.
			var own []string
			var body ast.Node = d
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj, _ := info.Defs[d.Name].(*types.Func)
				if obj == nil {
					continue
				}
				key := objectKey(obj)
				own = append(own, key)
				if recv := receiverNamed(obj); recv != nil {
					own = append(own, objectKey(recv.Obj()))
				}
				if inScope && d.Name.IsExported() {
					dc := decl{pos: fset.Position(d.Name.Pos())}
					if d.Recv != nil {
						dc.method = obj
					}
					declared[key] = dc
				}
				// The receiver clause names the type; that is not a use of it.
				body = &ast.FuncDecl{Name: d.Name, Type: d.Type, Body: d.Body}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{spec.Name}
						// An interface's own methods are surface too: one
						// nobody calls through the interface only widens
						// what every implementation must carry.
						if it, ok := spec.Type.(*ast.InterfaceType); ok && inScope {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									if fn, ok := info.Defs[id].(*types.Func); ok && id.IsExported() {
										declared[objectKey(fn)] = decl{pos: fset.Position(id.Pos())}
									}
								}
							}
						}
					case *ast.ValueSpec:
						names = spec.Names
						noteAssertion(info, spec, asserted)
					}
					for _, id := range names {
						obj := info.Defs[id]
						if obj == nil || id.Name == "_" {
							continue
						}
						own = append(own, objectKey(obj))
						if inScope && id.IsExported() {
							declared[objectKey(obj)] = decl{pos: fset.Position(id.Pos())}
						}
					}
				}
			}
			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if key := objectKey(info.Uses[n]); key != "" && !slices.Contains(own, key) {
						used[key] = true
					}
				case *ast.CallExpr:
					if t := rpcHanded(info, n); t != nil {
						rpcTypes[objectKey(t.Obj())] = true
					}
				}
				return true
			})
		}
	}
	ifaces := moduleInterfaces(files, imports)
	exempt := func(m *types.Func) bool {
		if stdProtocol[m.Name()] {
			return true
		}
		if recv := receiverNamed(m); recv != nil {
			key := objectKey(recv.Obj())
			if rpcTypes[key] || slices.ContainsFunc(asserted[key], func(it *types.Interface) bool { return declaresMethod(it, m.Name()) }) {
				return true
			}
		}
		return fixedByInterface(m, ifaces, imports)
	}

	var complaints []string
	dead := 0
	//lint:ordered complaints are sorted before they are reported
	for key, d := range declared {
		reason, ok := allowed[key]
		switch {
		case used[key]:
			if ok {
				complaints = append(complaints, fmt.Sprintf("%s: %s is referenced by production code now; drop its deadAllowed entry (%s)", d.pos, key, reason))
			}
		case d.method != nil && exempt(d.method):
		case !ok:
			dead++
			complaints = append(complaints, fmt.Sprintf("%s: %s is referenced by no non-test file: delete it, or allow it with a reason", d.pos, key))
		}
	}
	//lint:ordered complaints are sorted before they are reported
	for key := range allowed {
		if _, ok := declared[key]; !ok {
			complaints = append(complaints, fmt.Sprintf("deadAllowed lists %s, which no longer exists", key))
		}
	}
	sort.Strings(complaints)
	return complaints, len(declared), dead
}

// handedToRPCSrc hands a service to rpc.RegisterName and two codecs to
// rpc.ServeCodec and rpc.NewClientWithCodec, none of whose methods the
// package calls; loose declares two of the same method names on a type
// net/rpc never sees.
const handedToRPCSrc = `package w

import (
	"io"
	"net/rpc"
)

type service struct{}

func (service) Ping(args int, reply *int) error { return nil }

type serverCodec struct{ c io.Closer }

func (serverCodec) ReadRequestHeader(*rpc.Request) error { return nil }
func (serverCodec) ReadRequestBody(any) error { return nil }
func (serverCodec) WriteResponse(*rpc.Response, any) error { return nil }
func (s serverCodec) Close() error { return s.c.Close() }

type clientCodec struct{ c io.Closer }

func (*clientCodec) WriteRequest(*rpc.Request, any) error { return nil }
func (*clientCodec) ReadResponseHeader(*rpc.Response) error { return nil }
func (*clientCodec) ReadResponseBody(any) error { return nil }
func (c *clientCodec) Close() error { return c.c.Close() }

type loose struct{}

func (loose) WriteRequest(*rpc.Request, any) error { return nil }
func (loose) Close() error { return nil }

func serve(s *rpc.Server, c io.Closer) {
	_ = s.RegisterName("S", service{})
	s.ServeCodec(serverCodec{c})
}

func dial(c io.Closer) *rpc.Client { return rpc.NewClientWithCodec(&clientCodec{c}) }

var _, _, _ = serve, dial, loose{}
`

// TestDeadSurfaceRPCExemption runs the census on handedToRPCSrc,
// type-checked as a package under internal/: the methods net/rpc calls
// on the registered service and on both codecs are exempt, and the same
// names on loose are convicted — the exemption follows the type handed
// over, not the method name (Close in stdProtocol would exempt every
// Close of the module).
func TestDeadSurfaceRPCExemption(t *testing.T) {
	loadCensus(t) // for its loader's stdlib importer
	loader := censusModule.loader
	f, err := parser.ParseFile(loader.Fset, "w.go", handedToRPCSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	if _, err := (&types.Config{Importer: loader}).Check("m/internal/w", loader.Fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	files := []censusFile{{unit: &Unit{ImportPath: "m/internal/w", Info: info}, file: f, name: "internal/w/w.go"}}
	complaints, declared, _ := deadSurface(loader.Fset, "m", files, loader.imports, nil)
	var convicted []string
	for _, c := range complaints {
		_, after, _ := strings.Cut(c, ": m/internal/w.")
		name, _, _ := strings.Cut(after, " ")
		convicted = append(convicted, name)
	}
	if want := []string{"loose.WriteRequest", "loose.Close"}; declared != 11 || !slices.Equal(convicted, want) {
		t.Errorf("census of %d exported methods convicted %v, want %v of 11:\n%s", declared, convicted, want, strings.Join(complaints, "\n"))
	}
}

// assertedSrc holds a listener and its address to net.Listener and
// net.Addr with `var _ I = v`, and declares the same method names on
// loose, which nothing asserts, and on unasserted, which a plain `var _
// = v` only mentions.
const assertedSrc = `package w

import "net"

type listener struct{}

func (*listener) Accept() (net.Conn, error) { return nil, nil }
func (*listener) Close() error              { return nil }
func (*listener) Addr() net.Addr            { return addr("") }

type addr string

func (addr) Network() string { return "" }
func (addr) String() string  { return "" }

type loose struct{}

func (loose) Accept() (net.Conn, error) { return nil, nil }

type unasserted struct{}

func (unasserted) Network() string { return "" }

var (
	_ net.Listener = (*listener)(nil)
	_ net.Addr     = addr("")
	_              = unasserted{}
	_              = loose{}
)
`

// TestDeadSurfaceAssertionExemption runs the census on assertedSrc: the
// methods net.Listener and net.Addr declare are exempt on the types a
// `var _ I = v` holds to them, and convicted on the types nothing does.
func TestDeadSurfaceAssertionExemption(t *testing.T) {
	loadCensus(t) // for its loader's stdlib importer
	loader := censusModule.loader
	f, err := parser.ParseFile(loader.Fset, "w.go", assertedSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	if _, err := (&types.Config{Importer: loader}).Check("m/internal/w", loader.Fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	files := []censusFile{{unit: &Unit{ImportPath: "m/internal/w", Info: info}, file: f, name: "internal/w/w.go"}}
	complaints, declared, _ := deadSurface(loader.Fset, "m", files, loader.imports, nil)
	var convicted []string
	for _, c := range complaints {
		_, after, _ := strings.Cut(c, ": m/internal/w.")
		name, _, _ := strings.Cut(after, " ")
		convicted = append(convicted, name)
	}
	if want := []string{"loose.Accept", "unasserted.Network"}; declared != 7 || !slices.Equal(convicted, want) {
		t.Errorf("census of %d exported methods convicted %v, want %v of 7:\n%s", declared, convicted, want, strings.Join(complaints, "\n"))
	}
}

// objectKey names a package-level object or a method by package path,
// receiver and name — not by types.Object, because a package's own unit
// and the import view other packages see of it are distinct
// types.Packages. Locals, fields, interface methods' receivers resolve
// like any other named receiver; everything else yields "".
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := receiverNamed(fn); recv != nil {
			return recv.Obj().Pkg().Path() + "." + recv.Obj().Name() + "." + fn.Name()
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return "" // method of an unnamed (embedded-interface literal) type
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// receiverNamed is the named type fn is a method of, or nil.
func receiverNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	if named == nil || named.Obj().Pkg() == nil {
		return nil
	}
	return named.Origin()
}

// handedToRPC are the net/rpc functions (package functions or *rpc.Server
// methods) whose last argument net/rpc calls methods of: a service's
// receiver, or a codec.
var handedToRPC = map[string]bool{"Register": true, "RegisterName": true, "ServeCodec": true, "NewClientWithCodec": true}

// rpcHanded is the type call hands to a net/rpc function named in
// handedToRPC, or nil.
func rpcHanded(info *types.Info, call *ast.CallExpr) *types.Named {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "net/rpc" || !handedToRPC[fn.Name()] {
		return nil
	}
	return namedOf(info.TypeOf(call.Args[len(call.Args)-1]))
}

// namedOf is the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// noteAssertion records, for each `_ I = v` of spec with I an interface,
// that v's named type is held to I: the compiler refuses the package if
// the type stops implementing it, so the methods I declares are not the
// type's own to drop.
func noteAssertion(info *types.Info, spec *ast.ValueSpec, asserted map[string][]*types.Interface) {
	if spec.Type == nil {
		return
	}
	it, ok := info.TypeOf(spec.Type).Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i, v := range spec.Values {
		if i < len(spec.Names) && spec.Names[i].Name == "_" {
			if named := namedOf(info.TypeOf(v)); named != nil {
				key := objectKey(named.Obj())
				asserted[key] = append(asserted[key], it)
			}
		}
	}
}

// moduleInterfaces are the interface types files declare or spell
// out, and the named ones of the import views: a package's own unit and
// its import view are distinct types.Packages, so a method signature
// that mentions a module type only matches within one view.
func moduleInterfaces(files []censusFile, imports map[string]*types.Package) []*types.Interface {
	var ifaces []*types.Interface
	for _, cf := range files {
		ast.Inspect(cf.file, func(n ast.Node) bool {
			if n, ok := n.(*ast.InterfaceType); ok {
				if it, ok := cf.unit.Info.TypeOf(n).(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
			return true
		})
	}
	//lint:ordered the interface list is only searched, never reported
	for _, pkg := range imports {
		if pkg == nil {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	return ifaces
}

// fixedByInterface reports whether an interface of ifaces declares
// method m and m's receiver type, in its own unit's view or its import
// view, implements that interface: m's signature is then not its own
// to change.
func fixedByInterface(m *types.Func, ifaces []*types.Interface, imports map[string]*types.Package) bool {
	recv := receiverNamed(m)
	if recv == nil {
		return false
	}
	views := []types.Type{recv}
	if pkg := imports[recv.Obj().Pkg().Path()]; pkg != nil {
		if tn, ok := pkg.Scope().Lookup(recv.Obj().Name()).(*types.TypeName); ok {
			views = append(views, tn.Type())
		}
	}
	for _, it := range ifaces {
		if !declaresMethod(it, m.Name()) {
			continue
		}
		for _, v := range views {
			if types.Implements(v, it) || types.Implements(types.NewPointer(v), it) {
				return true
			}
		}
	}
	return false
}

func declaresMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
