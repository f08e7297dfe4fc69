package soc

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentIndexResolves keeps DESIGN.md's per-experiment index and
// cmd/socbench's catalog the same list: the last cell of every row is one
// `socbench -exp NAME` naming a catalog entry, and every catalog entry
// has a row.
func TestExperimentIndexResolves(t *testing.T) {
	// The catalog is a slice literal of {"name", "desc", run} rows, one
	// row start per line as gofmt leaves it.
	mainGo, err := os.ReadFile("cmd/socbench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\t\t\{"(\w+)", "`).FindAllSubmatch(mainGo, -1) {
		catalog[string(m[1])] = true
	}
	if len(catalog) == 0 {
		t.Fatal("found no socbench experiments; cmd/socbench's catalog moved")
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, found := strings.Cut(string(design), "## Per-experiment index\n")
	if !found {
		t.Fatal("DESIGN.md has no \"Per-experiment index\" section")
	}
	target := regexp.MustCompile("^`socbench -exp (\\w+)`$")
	indexed := map[string]bool{}
	for _, line := range strings.Split(index, "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Exp ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		id, last := cells[0], cells[len(cells)-1]
		m := target.FindStringSubmatch(last)
		switch {
		case m == nil:
			t.Errorf("%s: regeneration target %q is not exactly one `socbench -exp NAME`", id, last)
		case !catalog[m[1]]:
			t.Errorf("%s: socbench has no experiment %q", id, m[1])
		default:
			indexed[m[1]] = true
		}
	}
	for name := range catalog {
		if !indexed[name] {
			t.Errorf("socbench experiment %q has no row in the per-experiment index", name)
		}
	}
}
