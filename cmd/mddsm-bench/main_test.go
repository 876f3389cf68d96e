package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/experiments"
)

func TestRunSingleExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments")
	}
	// The cheap experiments run as part of the CLI test; e2 (timing
	// sweeps) is exercised with a tiny iteration count.
	for _, e := range []string{"e1", "e3", "e4", "e5", "e6"} {
		if err := run([]string{"-e", e, "-root", "../.."}); err != nil {
			t.Errorf("experiment %s: %v", e, err)
		}
	}
	if err := run([]string{"-e", "e2", "-iters", "2"}); err != nil {
		t.Errorf("experiment e2: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	// The retired driver modes are refused like any unknown name; their
	// numbers come from sysbench and the root go test benchmarks.
	for _, e := range []string{"e99", "pump", "serve", "http", "validate"} {
		if err := run([]string{"-e", e}); err == nil ||
			!strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-e %s: got %v", e, err)
		}
	}
	for _, args := range [][]string{{"-bogusflag"}, {"-validate-mode", "compiled"}} {
		if err := run(args); err == nil {
			t.Errorf("%v: bad flag must fail", args)
		}
	}
}

func TestRunMixedReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the mixed-workload soak")
	}
	out := filepath.Join(t.TempDir(), "BENCH_mixed.json")
	if err := run([]string{"-e", "mixed", "-json", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep experiments.MixedReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.AccountingExact {
		t.Error("mixed report violates exact accounting")
	}
	if rep.Tenants < 100 || len(rep.Bundles) == 0 {
		t.Errorf("degenerate mixed report: %+v", rep)
	}
}
