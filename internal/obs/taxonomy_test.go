package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestTaxonomyMatchesDocs keeps docs/OBSERVABILITY.md and this package
// from drifting apart: every event type has a row in the event table
// under its String() name and every name in that table is a type; the
// sink table names only sink types (and methods of theirs) that exist;
// and every back-quoted obs.Name anywhere in the document is an exported
// identifier of this package.
func TestTaxonomyMatchesDocs(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	idents, methods := packageSurface(t)

	documented := make(map[string]bool)
	for _, cells := range tableRows(t, doc, "## Event taxonomy") {
		for _, name := range backQuoted(cells[0]) {
			documented[name] = true
			if _, err := TypeByName(name); err != nil {
				t.Errorf("event table row %q: %v", name, err)
			}
		}
	}
	for typ := EvTaskStart; !strings.HasPrefix(typ.String(), "Type("); typ++ {
		if !documented[typ.String()] {
			t.Errorf("event type %q has no row in the event table", typ)
		}
		if back, err := TypeByName(typ.String()); err != nil || back != typ {
			t.Errorf("TypeByName(%q) = %v, %v", typ, back, err)
		}
	}

	call := regexp.MustCompile(`^(\w+)\(\)$`)
	for _, cells := range tableRows(t, doc, "## Sinks") {
		names := backQuoted(cells[0])
		if len(names) != 1 || !methods[names[0]]["Record"] {
			t.Errorf("sink table row %q does not name a type of this package with a Record method", cells[0])
			continue
		}
		for _, cell := range cells[1:] {
			for _, q := range backQuoted(cell) {
				if m := call.FindStringSubmatch(q); m != nil && !methods[names[0]][m[1]] {
					t.Errorf("sink table: %s has no method %s", names[0], q)
				}
			}
		}
	}

	for _, m := range regexp.MustCompile("`obs\\.(\\w+)").FindAllStringSubmatch(doc, -1) {
		if !idents[m[1]] {
			t.Errorf("the document cites obs.%s, which this package does not declare", m[1])
		}
	}
}

// tableRows returns the cells of every body row of the first markdown
// table after the given heading.
func tableRows(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	_, rest, ok := strings.Cut(doc, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("no %q section", heading)
	}
	var rows [][]string
	for _, line := range strings.Split(rest, "\n") {
		switch {
		case strings.HasPrefix(line, "|"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			if strings.HasPrefix(strings.TrimSpace(cells[0]), "`") {
				rows = append(rows, cells)
			}
		case len(rows) > 0 || strings.HasPrefix(line, "## "):
			if len(rows) == 0 {
				t.Fatalf("no table under %q", heading)
			}
			return rows
		}
	}
	return rows
}

var backQuote = regexp.MustCompile("`([^`]+)`")

func backQuoted(s string) []string {
	var out []string
	for _, m := range backQuote.FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	return out
}

// packageSurface parses this package's non-test files: its exported
// package-level identifiers, and the method names of each type.
func packageSurface(t *testing.T) (idents map[string]bool, methods map[string]map[string]bool) {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	idents, methods = make(map[string]bool), make(map[string]map[string]bool)
	//lint:ordered the loop only fills sets
	for _, f := range pkgs["obs"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					idents[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					if methods[id.Name] == nil {
						methods[id.Name] = make(map[string]bool)
					}
					methods[id.Name][d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						idents[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							idents[id.Name] = true
						}
					}
				}
			}
		}
	}
	return idents, methods
}
