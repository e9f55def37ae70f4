// Package lint is harelint's engine: a small, stdlib-only static
// analysis framework (go/parser + go/ast + go/types) with
// project-specific analyzers that guard the determinism discipline the
// engine-equivalence tests depend on. The incremental simulator, the
// reference replay, the testbed and the distributed control plane must
// produce byte-identical schedules under a seed; the defect classes
// that silently break that — map-iteration order, wall-clock reads in
// simulated-time code, the global math/rand source, exact float
// comparisons, raw observability sinks — are exactly what the
// analyzers flag, at commit time instead of golden-test time.
//
// Which analyzer applies where, and at what severity, is decided by a
// per-package Policy table (see policy.go and
// docs/STATIC_ANALYSIS.md). Individual lines opt out with annotation
// comments:
//
//	//lint:ordered <reason>           — this map iteration is order-insensitive
//	//lint:allow <names> <reason>     — suppress the named analyzers
//
// An annotation suppresses matching diagnostics on its own line and on
// the line directly below it, so both trailing and preceding comment
// placement work.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Severity ranks a diagnostic. Errors gate the build; warnings are
// advisory unless harelint runs with -lint-fail-on warning.
type Severity int

const (
	// SevWarning marks an advisory diagnostic.
	SevWarning Severity = iota
	// SevError marks a gating diagnostic.
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding, addressable as file:line.
type Diagnostic struct {
	Path     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Severity Severity `json:"-"`
	Message  string   `json:"message"`
}

// String renders the canonical file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Path, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check, run per package against type-checked
// syntax.
type Analyzer struct {
	// Name is the identifier used in output, policy and //lint:allow.
	Name string
	// Doc is a one-line description for -list and the docs.
	Doc string
	// SkipTestFiles drops diagnostics positioned in _test.go files.
	// Golden tests deliberately assert exact float equality and tests
	// may draw throwaway randomness, so floateq and globalrand set it.
	SkipTestFiles bool
	// Level extracts this analyzer's enforcement level from a
	// package's resolved Rules.
	Level func(Rules) Level
	// Run inspects the package and reports through the pass.
	Run func(*Pass)
}

// Analyzers is the full harelint suite in output order.
var Analyzers = []*Analyzer{MapRange, WallTime, GlobalRand, FloatEq, ObsRecorder}

// Pass is the per-(package, analyzer) context handed to Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the syntax trees to report on (the package's compiled
	// files plus its in-package tests, or the external test package).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Severity is the policy-resolved severity for this package.
	Severity Severity

	report func(Diagnostic)
}

// Reportf emits a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Diagnostic{
		Path:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Severity: p.Severity,
		Message:  fmt.Sprintf(format, args...),
	})
}

// pkgPathOf resolves the imported package behind a selector base like
// the `time` in `time.Now`, or "" when expr is not a package name.
func pkgPathOf(info *types.Info, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// suppressions maps file → line → analyzer names allowed there.
type suppressions map[string]map[int][]string

var directiveRe = regexp.MustCompile(`^//lint:(ordered|allow)(?:\s+(\S+))?`)

// collectSuppressions gathers //lint:ordered and //lint:allow
// directives. Each directive covers its own line and the next one.
func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	supp := make(suppressions)
	add := func(file string, line int, names ...string) {
		if supp[file] == nil {
			supp[file] = make(map[int][]string)
		}
		supp[file][line] = append(supp[file][line], names...)
		supp[file][line+1] = append(supp[file][line+1], names...)
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				switch m[1] {
				case "ordered":
					add(pos.Filename, pos.Line, MapRange.Name)
				case "allow":
					if m[2] != "" {
						add(pos.Filename, pos.Line, strings.Split(m[2], ",")...)
					}
				}
			}
		}
	}
	return supp
}

func (s suppressions) allows(analyzer, file string, line int) bool {
	for _, name := range s[file][line] {
		if name == analyzer {
			return true
		}
	}
	return false
}

// Run loads every package directory and applies the analyzers under
// the policy. Load and type-check failures surface as "typecheck"
// error diagnostics rather than aborting, so a half-broken tree still
// gets a precise file:line report.
func Run(l *Loader, dirs []string, pol Policy, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, dir := range dirs {
		units, diags, err := l.LoadDir(dir)
		if err != nil {
			out = append(out, Diagnostic{
				Path: dir, Analyzer: "typecheck", Severity: SevError, Message: err.Error(),
			})
			continue
		}
		out = append(out, diags...)
		for _, u := range units {
			out = append(out, runUnit(l, u, pol, analyzers)...)
		}
	}
	out = append(out, l.TypeErrors()...)
	return dedupeSort(out)
}

func runUnit(l *Loader, u *Unit, pol Policy, analyzers []*Analyzer) []Diagnostic {
	rules := pol.For(u.PolicyPath)
	supp := collectSuppressions(l.Fset, u.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		lvl := a.Level(rules)
		if lvl == LevelOff {
			continue
		}
		sev := SevError
		if lvl == LevelWarn {
			sev = SevWarning
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     l.Fset,
			Files:    u.Files,
			Pkg:      u.Pkg,
			Info:     u.Info,
			Severity: sev,
		}
		pass.report = func(d Diagnostic) {
			if a.SkipTestFiles && strings.HasSuffix(d.Path, "_test.go") {
				return
			}
			if supp.allows(a.Name, d.Path, d.Line) {
				return
			}
			out = append(out, d)
		}
		a.Run(pass)
	}
	return out
}

// dedupeSort orders diagnostics by position and drops exact
// duplicates (a package imported by several analyzed packages would
// otherwise repeat its type errors).
func dedupeSort(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Gate reports whether diags contain a finding at or above failOn.
func Gate(diags []Diagnostic, failOn Severity) bool {
	for _, d := range diags {
		if d.Severity >= failOn {
			return true
		}
	}
	return false
}
