package soc

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"soc/internal/lint"
)

// TestReadmeClockScope keeps README.md's `clockdiscipline` row and
// lint.DefaultConfig's ClockScope the same list: the row names every
// clock-disciplined package, by its path below soc/internal/, in one
// parenthesised list of backquoted names, and no other package.
func TestReadmeClockScope(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| `clockdiscipline` |") {
			row = line
			break
		}
	}
	m := regexp.MustCompile(`clock-disciplined packages \(([^)]*)\)`).FindStringSubmatch(row)
	if m == nil {
		t.Fatalf("README.md has no `clockdiscipline` row listing its packages: %q", row)
	}
	listed := map[string]bool{}
	for _, name := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(m[1], -1) {
		listed[name[1]] = true
	}
	scoped := map[string]bool{}
	for _, path := range lint.DefaultConfig().ClockScope {
		scoped[strings.TrimPrefix(path, "soc/internal/")] = true
	}
	for name := range scoped {
		if !listed[name] {
			t.Errorf("ClockScope covers %q; README's clockdiscipline row does not list it", name)
		}
	}
	for name := range listed {
		if !scoped[name] {
			t.Errorf("README's clockdiscipline row lists %q; ClockScope does not cover it", name)
		}
	}
}
