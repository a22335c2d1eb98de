package main

import (
	"fmt"
	"os"
	"strings"
)

// committedTables is the regenerated-tables file the row check compares
// against, relative to the repository root.
const committedTables = "tables_output.txt"

// rowChecker returns the row regression check of a tables-quick pass. At
// the default seed (0) every formatted table row must equal the row with
// the same table and leading name in the committed tables output; "#"
// timing lines are ignored. At other seeds the campaign seed differs from
// the committed run's and the check accepts every row.
func (p *passRun) rowChecker() func(formatted string) string {
	if p.seed != 0 {
		return func(string) string { return "" }
	}
	want, err := tableRows(committedTables)
	return func(formatted string) string {
		if err != nil {
			return err.Error()
		}
		for key, line := range parseRows(formatted) {
			w, ok := want[key]
			if !ok {
				return fmt.Sprintf("row %s is not in %s", key, committedTables)
			}
			if w != line {
				return fmt.Sprintf("row %s: got %q, %s has %q", key, line, committedTables, w)
			}
		}
		return ""
	}
}

func tableRows(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("row check: %v", err)
	}
	return parseRows(string(b)), nil
}

// parseRows keys every row of every table by "<table>/<first field>",
// where a table starts at a "Table N:" or "Table N(x):" title. Column
// header lines are keyed like rows and compared like them.
func parseRows(text string) map[string]string {
	rows := map[string]string{}
	table := ""
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, " ")
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(line, "#"):
		case f[0] == "Table":
			table, _, _ = strings.Cut(line, ":")
		case table != "":
			rows[table+"/"+f[0]] = line
		}
	}
	return rows
}
