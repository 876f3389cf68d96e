package core

import (
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
)

func TestCoverageComplete(t *testing.T) {
	def := goodDef(t)
	cov, err := AnalyzeCoverage(def)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Complete() {
		t.Fatalf("expected complete coverage, got unroutable %v", cov.UnroutableOps)
	}
	if cov.RoutedOps["startTask"] != "intent" {
		t.Errorf("startTask routing: %q", cov.RoutedOps["startTask"])
	}
	if cov.RoutedOps["stopTask"] != "action" {
		t.Errorf("stopTask routing: %q", cov.RoutedOps["stopTask"])
	}
	if !strings.Contains(cov.String(), "complete") {
		t.Errorf("report: %s", cov)
	}
}

func TestCoverageDetectsUnroutableOp(t *testing.T) {
	def := goodDef(t)
	// Add a synthesis rule emitting an op no Controller routes.
	l := goodLTS()
	l.On("run", "add-ref:Task.next", "", "run",
		lts.CommandTemplate{Op: "chainTasks", Target: "task:{id}"})
	def.DSK.LTSes["sem"] = l
	cov, err := AnalyzeCoverage(def)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Complete() {
		t.Fatal("chainTasks must be reported unroutable")
	}
	if len(cov.UnroutableOps) != 1 || cov.UnroutableOps[0] != "chainTasks" {
		t.Errorf("unroutable: %v", cov.UnroutableOps)
	}
	if !strings.Contains(cov.String(), "chainTasks") {
		t.Errorf("report: %s", cov)
	}
}

func TestCoverageCatchAllAction(t *testing.T) {
	def := goodDef(t)
	// Replace the controller action with a catch-all.
	b := mwmeta.NewBuilder("vm", "d")
	b.UILayer("ui")
	b.SynthesisLayer("se", "sem")
	b.ControllerLayer("ctl").
		PassthroughAction("all", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Done().
		BrokerLayer("brk").
		PassthroughAction("all", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "main")
	def.Middleware = b.Model()
	def.DSK.Procedures = nil
	cov, err := AnalyzeCoverage(def)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Complete() {
		t.Fatalf("catch-all action must route everything: %v", cov.UnroutableOps)
	}
	for op, how := range cov.RoutedOps {
		if how != "action" {
			t.Errorf("%s routed %q", op, how)
		}
	}
}

func TestCoverageUnhandledClasses(t *testing.T) {
	def := goodDef(t)
	// Extend the DSML with a class that has no synthesis semantics.
	def.DSML.MustAddClass(&metamodel.Class{Name: "Note"})
	cov, err := AnalyzeCoverage(def)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range cov.UnhandledClasses {
		if c == "Note" {
			found = true
		}
	}
	if !found {
		t.Errorf("Note should be flagged as unhandled: %v", cov.UnhandledClasses)
	}
	if !strings.Contains(cov.String(), "Note") {
		t.Errorf("report: %s", cov)
	}
}

func TestCoverageErrors(t *testing.T) {
	if _, err := AnalyzeCoverage(Definition{Name: "x"}); err == nil {
		t.Error("nil middleware must fail")
	}
	bad := metamodel.NewModel(mwmeta.Name)
	bad.NewObject("x", "Bogus")
	if _, err := AnalyzeCoverage(Definition{Name: "x", Middleware: bad}); err == nil {
		t.Error("nonconforming middleware must fail")
	}
}
