package main

import (
	"os"
	"strings"
	"testing"
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
	out, err := os.CreateTemp(t.TempDir(), "mixed")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run([]string{"-e", "mixed"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	report := string(data)
	for _, want := range []string{
		"Mixed — ",
		"exact accounting (posted = delivered + failures + dlq + dropped): holds for every tenant",
		"cml", "mgrid", "smartspace", "csense", "synthetic",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("mixed report lacks %q:\n%s", want, report)
		}
	}
}
