package atpg

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"compsynth/internal/bench"
	"compsynth/internal/faults"
)

// FuzzGenerateMatchesRef runs both engines on every collapsed fault of
// every netlist the parser accepts, at a small backtrack limit, and
// requires the same status, test and backtrack count. It lives next to the
// reference engine (a _test.go file of this package) and is seeded with
// FuzzParseBench's corpus: that fuzzer's seeds plus the inputs it has
// committed under internal/bench/testdata.
func FuzzGenerateMatchesRef(f *testing.F) {
	f.Add(bench.C17)
	f.Add(bench.Adder4)
	files, err := filepath.Glob(filepath.Join("..", "..", "circuits", "*.bench"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("INPUT(a)\nOUTPUT(a)\n")
	f.Add("INPUT(a)\nOUTPUT(g)\ng = AND(a, a)\n")
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(g)\nk = CONST1()\nh = XOR(a, k)\ng = NOR(h, b, a)\n")
	corpus, err := filepath.Glob(filepath.Join("..", "bench", "testdata", "fuzz", "FuzzParseBench", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range corpus {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		// Corpus files are "go test fuzz v1" followed by one string(...)
		// line.
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "string(") {
			f.Fatalf("%s: unexpected corpus entry format", file)
		}
		src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		c, err := bench.ParseString(src, "fuzz")
		if err != nil {
			return // not a circuit; FuzzParseBench owns parser robustness
		}
		for _, fl := range faults.Collapse(c) {
			checkMatchesRef(t, "fuzz", c, fl, 16)
		}
	})
}
