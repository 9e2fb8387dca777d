package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// docTableIDs returns the experiment IDs that open the rows of the
// first Markdown table after heading in the document at path.
func docTableIDs(t *testing.T, path, heading string) []string {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(buf), "\n"+heading+"\n")
	if !ok {
		t.Fatalf("%s: heading %q not found", path, heading)
	}
	row := regexp.MustCompile(`^\| *([EF][0-9]+) *\|`)
	var ids []string
	inTable := false
	for _, line := range strings.Split(after, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		if m := row.FindStringSubmatch(line); m != nil {
			ids = append(ids, m[1])
		}
	}
	if len(ids) == 0 {
		t.Fatalf("%s: no experiment rows under %q", path, heading)
	}
	return ids
}

// The experiment indexes in DESIGN.md §4 and EXPERIMENTS.md's summary
// name exactly the registered experiments: each row's ID resolves to
// one registry entry, and each entry has one row in both tables.
func TestDocExperimentIDsMatchRegistry(t *testing.T) {
	registered := map[string]int{}
	for _, e := range Registry {
		registered[e.ID]++
	}
	for id, n := range registered {
		if n != 1 {
			t.Fatalf("experiment %s registered %d times", id, n)
		}
	}
	for _, doc := range []struct{ path, heading string }{
		{"../../DESIGN.md", "## 4. Experiment index (tables/figures of this reproduction)"},
		{"../../EXPERIMENTS.md", "## Summary of outcomes"},
	} {
		rows := map[string]int{}
		for _, id := range docTableIDs(t, doc.path, doc.heading) {
			rows[id]++
			if registered[id] != 1 {
				t.Errorf("%s: row %s names no registered experiment", doc.path, id)
			}
		}
		for _, e := range Registry {
			if rows[e.ID] != 1 {
				t.Errorf("%s: experiment %s has %d rows, want 1", doc.path, e.ID, rows[e.ID])
			}
		}
	}
}
