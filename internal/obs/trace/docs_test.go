package trace

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestTraceKindsDocumented is the trace half of the docs drift check
// (the metric half is internal/server's TestRuntimeMetricsDocumented):
// every named Kind is a row of OBSERVABILITY.md's "Trace events" table,
// and every kind the table names parses, so a kind can be neither added
// undocumented nor retired with its row left behind.
func TestTraceKindsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../../OBSERVABILITY.md")
	if err != nil {
		t.Fatalf("read OBSERVABILITY.md: %v", err)
	}
	_, table, ok := strings.Cut(string(doc), "\n| Kind | Arg0 | Arg1 | Emitted by |\n|---|---|---|---|\n")
	if !ok {
		t.Fatal(`OBSERVABILITY.md has no "| Kind | Arg0 | Arg1 | Emitted by |" table`)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	codeSpan := regexp.MustCompile("`([^`]+)`")
	documented := map[string]bool{}
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 3 {
			t.Fatalf("malformed kinds table row %q", row)
		}
		for _, m := range codeSpan.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
		}
	}
	for k := KindPhaseBegin; k <= kindMax; k++ {
		if name := k.String(); name != "none" && !documented[name] {
			t.Errorf("kind %d %q has no row in OBSERVABILITY.md's trace events table", k, name)
		}
	}
	for name := range documented {
		if kindByName(name) == KindNone {
			t.Errorf("OBSERVABILITY.md's trace events table names %q, which is no kind", name)
		}
	}
}
