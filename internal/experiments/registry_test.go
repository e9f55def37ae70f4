package experiments

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// wallClock are the experiments whose cells carry testbed or stopwatch
// time and so differ from run to run; the golden leaves them out.
var wallClock = map[string]bool{"fig11": true, "fig12": true, "largetrace": true}

// TestEvaluationGolden pins the text of the evaluation: every other
// registry entry, rendered as harebench renders it at seed 42 and
// -scale 0.05 -jobs 40 -gpus 32, is byte-identical to the capture in
// testdata — serial and across four workers. The golden is harebench's
// stdout with the three wall-clock sections cut; regenerate it with
//
//	go run ./cmd/harebench -scale 0.05 -jobs 40 -gpus 32
//
// only when a change means to move a number, and say which in the PR.
func TestEvaluationGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/evaluation_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 4} {
		cfg := Config{Seed: 42, RoundsScale: 0.05, Jobs: 40, GPUs: 32, Parallel: parallel}
		var got bytes.Buffer
		for _, e := range All() {
			if wallClock[e.ID] {
				continue
			}
			if err := e.Render(&got, cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		if bytes.Equal(got.Bytes(), want) {
			continue
		}
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		lineAt := func(lines []string, i int) string {
			if i >= len(lines) {
				return "<end of file>"
			}
			return lines[i]
		}
		for i := 0; ; i++ {
			if g, w := lineAt(gotLines, i), lineAt(wantLines, i); g != w {
				t.Fatalf("Parallel=%d: line %d differs from the golden:\n got %q\nwant %q", parallel, i+1, g, w)
			}
		}
	}
}

// TestExperimentIndexMatchesDocs keeps the registry and the two
// documents that index it from drifting apart: every experiment has a
// row in DESIGN.md's per-experiment index (or its ablation table) and a
// row or section in EXPERIMENTS.md, and every ID either names is
// registered.
func TestExperimentIndexMatchesDocs(t *testing.T) {
	var registered []string
	for _, e := range All() {
		registered = append(registered, e.ID)
	}
	design := readDoc(t, "../../DESIGN.md")
	_, index, ok := strings.Cut(design, "\n## Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## Per-experiment index\" section")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	for _, doc := range []struct{ name, text string }{
		{"DESIGN.md's per-experiment index", index},
		{"EXPERIMENTS.md", readDoc(t, "../../EXPERIMENTS.md")},
	} {
		named := tableIDs(doc.text)
		for _, id := range registered {
			if !slices.Contains(named, id) {
				t.Errorf("experiment %q has no row in %s", id, doc.name)
			}
		}
		for _, id := range named {
			if !slices.Contains(registered, id) {
				t.Errorf("%s has a row for %q, which experiments.All does not list", doc.name, id)
			}
		}
	}
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

var (
	figureCell = regexp.MustCompile(`^Fig\. (\d+)$`)
	idCell     = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
)

// tableIDs returns the experiment IDs a document's tables name in their
// first column — `fig14`, or **Fig. 14** with an optional parenthesis —
// plus tab3 for a "Table 3" heading, the one artifact with a section of
// its own.
func tableIDs(doc string) []string {
	var ids []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "## Table 3") {
			ids = append(ids, "tab3")
		}
		if !strings.HasPrefix(line, "|") {
			continue
		}
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		first, _, _ = strings.Cut(first, " (")
		first = strings.Trim(first, " *`")
		if m := figureCell.FindStringSubmatch(first); m != nil {
			ids = append(ids, "fig"+m[1])
		} else if idCell.MatchString(first) {
			ids = append(ids, first)
		}
	}
	return ids
}
