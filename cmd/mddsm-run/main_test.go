package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func data(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", name)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("testdata %s: %v", name, err)
	}
	return path
}

func TestRunCVM(t *testing.T) {
	if err := run([]string{"-domain", "cvm", "-model", data(t, "session.json")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMGridVM(t *testing.T) {
	if err := run([]string{"-domain", "mgridvm", "-model", data(t, "home.json")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunObs(t *testing.T) {
	for _, c := range [][]string{
		{"-domain", "cvm", "-model", data(t, "session.json"), "-obs"},
		{"-domain", "mgridvm", "-model", data(t, "home.json"), "-obs"},
	} {
		if err := run(c); err != nil {
			t.Errorf("%v: %v", c, err)
		}
	}
}

func TestRunValidateFlags(t *testing.T) {
	// Validation has no flags: the process-wide -validate-mode switch and
	// the -validate-cache size were removed and must be refused.
	for _, removed := range [][]string{{"-validate-mode", "compiled"}, {"-validate-cache", "0"}} {
		args := append([]string{"-domain", "cvm", "-model", data(t, "session.json")}, removed...)
		if err := run(args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: want a flag parse error, got %v", removed, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-domain", "cvm"}); err == nil {
		t.Error("missing -model must fail")
	}
	if err := run([]string{"-domain", "nope", "-model", data(t, "session.json")}); err == nil ||
		!strings.Contains(err.Error(), "unknown bundle") {
		t.Errorf("unknown domain: %v", err)
	}
	if err := run([]string{"-domain", "cvm", "-model", "missing.json"}); err == nil {
		t.Error("missing file must fail")
	}
	// A model for the wrong domain fails conformance inside the platform.
	if err := run([]string{"-domain", "cvm", "-model", data(t, "home.json")}); err == nil {
		t.Error("wrong-domain model must fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-domain", "cvm", "-model", bad}); err == nil {
		t.Error("bad JSON must fail")
	}
}
