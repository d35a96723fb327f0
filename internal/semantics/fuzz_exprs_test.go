package semantics

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
)

var updateFuzzExprs = flag.Bool("update-fuzz-exprs", false, "rewrite "+fuzzExprsFile)

// fuzzExprsFile lists the expressions of the differential fuzzers' seeds
// and committed corpora, one canonical string a line. internal/state's
// TestInternAgreesWithKeys drives them through its hash-consing cache,
// which it cannot do from here.
const fuzzExprsFile = "../state/testdata/fuzz_exprs.txt"

// TestFuzzExprsListed: fuzzExprsFile lists exactly the expressions the
// seeds and committed corpora of FuzzOperationalVsOracle and
// FuzzBindingsVsOracle decode to. After a corpus change, run
//
//	go test ./internal/semantics -run TestFuzzExprsListed -update-fuzz-exprs
func TestFuzzExprsListed(t *testing.T) {
	var srcs []string
	for _, fz := range []struct {
		name   string
		seeds  [][]byte
		decode func([]byte) (*expr.Expr, Word)
	}{
		{"FuzzOperationalVsOracle", operationalSeeds, decodeCase},
		{"FuzzBindingsVsOracle", bindingSeeds, decodeBindingCase},
	} {
		inputs := slices.Clone(fz.seeds)
		files, _ := filepath.Glob(filepath.Join("testdata", "fuzz", fz.name, "*"))
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			arg, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
			if !ok {
				t.Fatalf("%s: not a []byte corpus entry", f)
			}
			in, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			inputs = append(inputs, []byte(in))
		}
		for _, in := range inputs {
			e, _ := fz.decode(in)
			srcs = append(srcs, e.String())
		}
	}
	slices.Sort(srcs)
	want := strings.Join(slices.Compact(srcs), "\n") + "\n"
	if *updateFuzzExprs {
		if err := os.WriteFile(fuzzExprsFile, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(fuzzExprsFile)
	if err != nil || string(got) != want {
		t.Fatalf("%s is stale (%v); run go test ./internal/semantics -run TestFuzzExprsListed -update-fuzz-exprs", fuzzExprsFile, err)
	}
}
