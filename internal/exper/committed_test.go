package exper

import (
	"os"
	"strings"
	"testing"
)

// TestTable5MatchesCommitted regenerates Table 5 for two circuits of the
// quick configuration and requires each row to equal its line in the
// committed tables_output.txt. rs5378 is the row that once failed with
// "pass 0 broke equivalence": a per-pass truth-table memo keyed by the gate
// set handed back a table whose inputs had since been rewired.
func TestTable5MatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("table regeneration in -short mode")
	}
	raw, err := os.ReadFile("../../tables_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, committed, ok := strings.Cut(string(raw), "Table 5:")
	if !ok {
		t.Fatal("tables_output.txt has no Table 5")
	}
	committed, _, _ = strings.Cut(committed, "\n\n")
	want := map[string]string{}
	for _, line := range strings.Split(committed, "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			want[f[0]] = line
		}
	}

	cfg := QuickConfig()
	cfg.Circuits = []string{"rs1423", "rs5378"}
	items, err := PrepareSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Table5(NewSuite(cfg, items))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Circuits) {
		t.Fatalf("got %d rows, want %d", len(rows), len(cfg.Circuits))
	}
	lines := strings.Split(strings.TrimSpace(FormatTable5(rows)), "\n")[2:]
	for _, line := range lines {
		key := strings.Fields(line)[0]
		if want[key] != line {
			t.Errorf("Table 5 row differs from tables_output.txt:\n got %q\nwant %q", line, want[key])
		}
	}
}
