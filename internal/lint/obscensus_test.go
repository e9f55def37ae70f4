package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// obsAllowed are the metric families and event types the observability
// census convicts but that stay, each with the reason. "An operator
// might scrape it" is not a reason: it fits every family. The list may
// only shrink. An entry that is read after all, or whose family or
// type is gone, fails the census too, so the list cannot rot.
var obsAllowed = map[string]string{
	"hare_obs_ring_events_total":  "registered by RingSink.AttachMetrics, which bench/e2e/wl_dist.go calls; goes with the next change to the benchmark",
	"hare_obs_ring_dropped_total": "registered by RingSink.AttachMetrics, which bench/e2e/wl_dist.go calls; goes with the next change to the benchmark",
	"obs.EvMemHit":                "internal/obs/testdata/chrometrace.golden.json pins two mem-hit slices (TestChromeTraceGolden), which no test reaches by the constant",
}

// registryMethods are the obs.Registry methods that register a family.
var registryMethods = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}

// obsFamily is one registered metric family: the constant part of the
// series name before "{", where a fmt verb ("hare_rpc_%s_calls_total")
// stands for any of the names it formats to.
type obsFamily struct {
	pos    token.Position  // first registration
	files  map[string]bool // the files that register it
	name   *regexp.Regexp  // a series name of the family
	family *regexp.Regexp  // the family's name alone
	read   bool
}

// TestObsCensus: every metric family registered through an
// obs.Registry in a non-test file, and every obs.Ev* event type, is
// read by something other than the code that produces it.
//
// A family's reader is a string literal naming it — with or without a
// "{labels}" suffix or a histogram's _bucket/_sum/_count — in
// cmd/harectl, cmd/hareperf, bench/e2e or any _test.go file, outside
// the files that register it. The generic dumpers (harectl stats,
// /metrics, WriteText) name no family, so they read none. A
// registration whose family the census cannot work out fails.
//
// An event type's consumer is, outside package obs, an == / != operand
// or a case of a switch (code that acts on an event's Type), or any
// mention in a _test.go file. Package obs's own files never count:
// they either emit (TaskRun, the RPC observer) or are type-generic
// (names, Format, the chrome-trace and JSONL encodings).
//
// What nothing reads is cost without a question behind it: delete it
// with its emit sites, or list it in obsAllowed with the reason. And
// docs/OBSERVABILITY.md's metric table has one row per family: every
// row names a registered family, and every family has a row.
func TestObsCensus(t *testing.T) {
	files := loadCensus(t)
	loader := censusModule.loader
	obsPath := loader.ModulePath + "/internal/obs"

	families := make(map[string]*obsFamily)
	evTypes := make(map[string]token.Position) // "obs.EvX" → declaration
	consumed := make(map[string]bool)
	var complaints []string

	readerScope := func(name string) bool {
		return strings.HasPrefix(name, "cmd/harectl/") || strings.HasPrefix(name, "cmd/hareperf/") || strings.HasPrefix(name, "bench/e2e/")
	}
	for _, cf := range files {
		info := cf.unit.Info
		inObs := cf.unit.ImportPath == obsPath
		if inObs {
			for _, d := range cf.file.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if c, ok := info.Defs[id].(*types.Const); ok && isEventType(c.Type(), obsPath) && strings.HasPrefix(id.Name, "Ev") {
								evTypes["obs."+id.Name] = loader.Fset.Position(id.Pos())
							}
						}
					}
				}
			}
		}
		ast.Inspect(cf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					return true
				}
				// A reader's Counter/Gauge call looks a series up; it
				// registers nothing the reader does not read.
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || readerScope(cf.name) || !registryMethods[fn.Name()] || objectKey(fn) != obsPath+".Registry."+fn.Name() {
					return true
				}
				pos := loader.Fset.Position(n.Pos())
				key, re, fam := familyOf(info, n.Args[0])
				if re == nil {
					complaints = append(complaints, fmt.Sprintf("%s: cannot work out the family this %s registers: name it with a string literal", pos, fn.Name()))
					return true
				}
				f := families[key]
				if f == nil {
					f = &obsFamily{pos: pos, files: make(map[string]bool), name: re, family: fam}
					families[key] = f
				}
				f.files[cf.name] = true
			case *ast.BinaryExpr:
				if !inObs && (n.Op == token.EQL || n.Op == token.NEQ) {
					markEventType(info, n.X, obsPath, consumed)
					markEventType(info, n.Y, obsPath, consumed)
				}
			case *ast.CaseClause:
				if !inObs {
					for _, e := range n.List {
						markEventType(info, e, obsPath, consumed)
					}
				}
			}
			return true
		})
	}
	if len(families) < 10 || len(evTypes) < 10 {
		t.Fatalf("census found only %d metric families and %d event types; the scope rule no longer matches the repo", len(families), len(evTypes))
	}

	for _, cf := range append(append([]censusFile(nil), files...), censusModule.tests...) {
		test := strings.HasSuffix(cf.name, "_test.go")
		if strings.HasPrefix(cf.name, "internal/lint/") || !test && !readerScope(cf.name) {
			continue
		}
		info := cf.unit.Info
		ast.Inspect(cf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					return true
				}
				s, err := strconv.Unquote(n.Value)
				if err != nil || !strings.HasPrefix(s, "hare_") {
					return true
				}
				//lint:ordered marking read flags is order-free
				for _, f := range families {
					if !f.files[cf.name] && f.name.MatchString(s) {
						f.read = true
					}
				}
			case *ast.Ident:
				if test {
					markEventType(info, n, obsPath, consumed)
				}
			}
			return true
		})
	}

	//lint:ordered complaints are sorted before they are reported
	for key, f := range families {
		reason, allowed := obsAllowed[key]
		switch {
		case !f.read && !allowed:
			complaints = append(complaints, fmt.Sprintf("%s: metric family %s is read by nothing (harectl, hareperf, bench/e2e or a test naming it): delete it, or allow it with a reason", f.pos, key))
		case f.read && allowed:
			complaints = append(complaints, fmt.Sprintf("%s: metric family %s is read now; drop its obsAllowed entry (%s)", f.pos, key, reason))
		}
	}
	//lint:ordered complaints are sorted before they are reported
	for key, pos := range evTypes {
		reason, allowed := obsAllowed[key]
		switch {
		case !consumed[key] && !allowed:
			complaints = append(complaints, fmt.Sprintf("%s: event type %s has no consumer besides its emitters: delete it, or allow it with a reason", pos, key))
		case consumed[key] && allowed:
			complaints = append(complaints, fmt.Sprintf("%s: event type %s has a consumer now; drop its obsAllowed entry (%s)", pos, key, reason))
		}
	}
	//lint:ordered complaints are sorted before they are reported
	for key := range obsAllowed {
		if _, ok := families[key]; !ok {
			if _, ok := evTypes[key]; !ok {
				complaints = append(complaints, fmt.Sprintf("obsAllowed lists %s, which no longer exists", key))
			}
		}
	}
	complaints = append(complaints, metricTableDrift(t, families)...)
	sort.Strings(complaints)
	for _, c := range complaints {
		t.Error(c)
	}
	t.Logf("%d metric families, %d event types, %d allowed unread", len(families), len(evTypes), len(obsAllowed))
}

// metricTableDrift compares the metric table of docs/OBSERVABILITY.md
// (first cell: the back-quoted family, labels as {name}) with the
// registered families, both ways.
func metricTableDrift(t *testing.T, families map[string]*obsFamily) []string {
	const doc, heading = "docs/OBSERVABILITY.md", "\n## Metrics registry\n"
	raw, err := os.ReadFile(filepath.Join(censusModule.loader.ModuleRoot, doc))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), heading)
	if !ok {
		t.Fatalf("%s has no %q section", doc, strings.TrimSpace(heading))
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var out []string
	rows := make(map[string]bool) // family keys with a row
	for _, line := range strings.Split(section, "\n") {
		m := tableFamily.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		matched := false
		//lint:ordered the loop only fills a set
		for key, f := range families {
			if f.family.MatchString(m[1]) {
				rows[key], matched = true, true
			}
		}
		if !matched {
			out = append(out, fmt.Sprintf("%s: the metric table lists %s, which no code registers", doc, m[1]))
		}
	}
	//lint:ordered complaints are sorted before they are reported
	for key, f := range families {
		if !rows[key] {
			out = append(out, fmt.Sprintf("%s: metric family %s has no row in %s's metric table", f.pos, key, doc))
		}
	}
	return out
}

// tableFamily matches a metric-table row and captures its family name.
var tableFamily = regexp.MustCompile("^\\| `(hare_[a-z0-9_]+)(\\{[a-z]+\\})?` \\|")

// familyOf names the family a registration's series-name argument
// belongs to: the argument's constant value, or else its first string
// literal in source order, cut at "{". It returns the family key, a
// pattern matching the family's series names with an optional
// histogram suffix and label set, and one matching the family name
// alone; the patterns are nil when the name is not a hare_ family.
func familyOf(info *types.Info, arg ast.Expr) (string, *regexp.Regexp, *regexp.Regexp) {
	var name string
	if tv := info.Types[arg]; tv.Value != nil && tv.Value.Kind() == constant.String {
		name = constant.StringVal(tv.Value)
	} else {
		ast.Inspect(arg, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && name == "" {
				name, _ = strconv.Unquote(lit.Value)
			}
			return name == ""
		})
	}
	key, _, _ := strings.Cut(name, "{")
	if !familyName.MatchString(key) {
		return "", nil, nil
	}
	pattern := strings.NewReplacer("%s", "[a-z0-9]+", "%d", "[0-9]+").Replace(key)
	return key, regexp.MustCompile(`^` + pattern + `(_bucket|_sum|_count)?(\{.*)?$`), regexp.MustCompile(`^` + pattern + `$`)
}

// familyName is a family key the census can read: snake_case under
// hare_, with %s / %d verbs standing for one name segment.
var familyName = regexp.MustCompile(`^hare_([a-z0-9_]|%s|%d)+$`)

// isEventType reports whether t is obs.Type.
func isEventType(t types.Type, obsPath string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == obsPath && named.Obj().Name() == "Type"
}

// markEventType marks e consumed when it names an obs.Ev* constant.
func markEventType(info *types.Info, e ast.Expr, obsPath string, consumed map[string]bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return
	}
	if c, ok := info.Uses[id].(*types.Const); ok && c.Pkg() != nil && c.Pkg().Path() == obsPath && isEventType(c.Type(), obsPath) && strings.HasPrefix(c.Name(), "Ev") {
		consumed["obs."+c.Name()] = true
	}
}
