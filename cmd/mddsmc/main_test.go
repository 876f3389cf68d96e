package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// data resolves a testdata file at the repository root.
func data(t *testing.T, name string) string {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", name)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("testdata %s: %v", name, err)
	}
	return path
}

func TestValidateOK(t *testing.T) {
	err := run([]string{"validate",
		"-metamodel", data(t, "toy-metamodel.json"),
		"-model", data(t, "toy-model-a.json")}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadModel(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"metamodel":"toy","objects":[{"id":"x","class":"Shape"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"validate",
		"-metamodel", data(t, "toy-metamodel.json"), "-model", bad}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "does not conform") {
		t.Fatalf("got %v", err)
	}
}

func TestDiff(t *testing.T) {
	err := run([]string{"diff",
		"-metamodel", data(t, "toy-metamodel.json"),
		"-old", data(t, "toy-model-a.json"),
		"-new", data(t, "toy-model-b.json")}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Self-diff reports equivalence.
	err = run([]string{"diff",
		"-old", data(t, "toy-model-a.json"),
		"-new", data(t, "toy-model-a.json")}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidateMiddleware(t *testing.T) {
	dir := t.TempDir()
	// Export and re-validate a trivial middleware model.
	mw := filepath.Join(dir, "mw.json")
	content := `{"metamodel":"mddsm-middleware","objects":[
	  {"id":"platform","class":"Platform","attrs":{"name":"p"},"refs":{"layers":["b"]}},
	  {"id":"b","class":"BrokerLayer","attrs":{"name":"brk"}}
	]}`
	if err := os.WriteFile(mw, []byte(content), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate-middleware", "-model", mw}, io.Discard); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"metamodel":"x","objects":[{"id":"a","class":"Bogus"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"validate-middleware", "-model", bad}, io.Discard); err == nil {
		t.Fatal("bad middleware model must fail")
	}
}

func TestExportMiddlewareMetamodel(t *testing.T) {
	if err := run([]string{"export-middleware-metamodel"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"validate"},
		{"validate-middleware"},
		{"diff"},
		{"validate", "-metamodel", "nope.json", "-model", "nope.json"},
		{"diff", "-old", "nope.json", "-new", "nope.json"},
		{"validate-middleware", "-model", "nope.json"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	if err := run(nil, io.Discard); err == nil || !strings.Contains(err.Error(), "|coverage>") {
		t.Errorf("usage error %v does not list the coverage subcommand", err)
	}
}

func TestDiffValidatesSides(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"metamodel":"toy","objects":[{"id":"x","class":"Nope"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"diff",
		"-metamodel", data(t, "toy-metamodel.json"),
		"-old", bad,
		"-new", data(t, "toy-model-a.json")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "old model") {
		t.Fatalf("got %v", err)
	}
}

func TestCoverageSubcommand(t *testing.T) {
	for _, d := range []string{"cvm", "mgridvm", "2svm", "csvm-provider", "csvm-device"} {
		var out bytes.Buffer
		if err := run([]string{"coverage", "-domain", d}, &out); err != nil {
			t.Errorf("coverage %s: %v", d, err)
		}
		if want := "domain " + d + ":\ncoverage: complete"; !strings.HasPrefix(out.String(), want) {
			t.Errorf("coverage %s report:\n%s\nwant it to start with %q", d, out.String(), want)
		}
	}
	if err := run([]string{"coverage", "-domain", "nope"}, io.Discard); err == nil {
		t.Error("unknown domain must fail")
	}
}
