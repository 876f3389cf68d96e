package smartspace

import (
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/script"
)

func TestDefinitionValidates(t *testing.T) {
	def := core.Definition{
		Name:       "2svm",
		DSML:       Metamodel(),
		Middleware: CentralModel(),
		DSK: core.DSK{
			LTSes: map[string]*lts.LTS{LTSName: SynthesisLTS()},
		},
	}
	if err := def.Validate(); err != nil {
		t.Fatalf("2SVM definition must validate: %v", err)
	}
}

func newSSVM(t *testing.T) *SSVM {
	t.Helper()
	vm, err := New(domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func TestRuleDrivenSpaceBehaviour(t *testing.T) {
	vm := newSSVM(t)

	// The user models: when anything enters the space, turn lamp1 on.
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("ana", "User").SetAttr("name", "Ana")
	d.MustAdd("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
	d.MustAdd("welcome", "Rule").
		SetAttr("onEvent", "objectEntered").
		SetAttr("subject", "badge1").
		SetAttr("targetObject", "lamp1").
		SetAttr("prop", "on").
		SetAttr("value", "true")
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}

	// Physical objects arrive: first the lamp (so its node exists), then
	// the badge that triggers the rule.
	if err := vm.Hub.ObjectEnters("lamp1", "lamp"); err != nil {
		t.Fatal(err)
	}
	if err := vm.Hub.ObjectEnters("badge1", "badge"); err != nil {
		t.Fatal(err)
	}

	o, ok := vm.Hub.Space().Object("lamp1")
	if !ok {
		t.Fatal("lamp1 unknown")
	}
	if v, _ := o.Prop("on"); v != true {
		t.Fatalf("rule must have turned the lamp on: %v", v)
	}
	if vm.Hub.NodeCount() != 2 {
		t.Errorf("nodes: %d", vm.Hub.NodeCount())
	}
	// The configuration travelled through the object node's two-layer
	// platform down to the space.
	if !strings.Contains(vm.Hub.Space().Trace().String(), `setProperty object:lamp1 prop="on" value=true`) {
		t.Errorf("space trace:\n%s", vm.Hub.Space().Trace())
	}
}

func TestSubjectFilteringAndDisarm(t *testing.T) {
	vm := newSSVM(t)
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
	d.MustAdd("r1", "Rule").
		SetAttr("onEvent", "objectEntered").
		SetAttr("subject", "badge1").
		SetAttr("targetObject", "lamp1").
		SetAttr("prop", "on").
		SetAttr("value", "true")
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}
	if err := vm.Hub.ObjectEnters("lamp1", "lamp"); err != nil {
		t.Fatal(err)
	}
	// A different badge does not match the subject.
	if err := vm.Hub.ObjectEnters("badge2", "badge"); err != nil {
		t.Fatal(err)
	}
	o, _ := vm.Hub.Space().Object("lamp1")
	if _, set := o.Prop("on"); set {
		t.Fatal("rule must not fire for a non-matching subject")
	}

	// models@runtime: removing the rule disarms it.
	edit := vm.Platform.UI.EditDraft()
	if err := edit.Remove("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := edit.Submit(); err != nil {
		t.Fatal(err)
	}
	if err := vm.Hub.ObjectEnters("badge1", "badge"); err != nil {
		t.Fatal(err)
	}
	o, _ = vm.Hub.Space().Object("lamp1")
	if _, set := o.Prop("on"); set {
		t.Fatal("disarmed rule must not fire")
	}
}

func TestLeaveRule(t *testing.T) {
	vm := newSSVM(t)
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
	d.MustAdd("bye", "Rule").
		SetAttr("onEvent", "objectLeft").
		SetAttr("subject", "*").
		SetAttr("targetObject", "lamp1").
		SetAttr("prop", "on").
		SetAttr("value", "false")
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}
	if err := vm.Hub.ObjectEnters("lamp1", "lamp"); err != nil {
		t.Fatal(err)
	}
	if err := vm.Hub.ObjectEnters("badge1", "badge"); err != nil {
		t.Fatal(err)
	}
	if err := vm.Hub.ObjectLeaves("badge1"); err != nil {
		t.Fatal(err)
	}
	o, _ := vm.Hub.Space().Object("lamp1")
	if v, _ := o.Prop("on"); v != false {
		t.Fatalf("leave rule must turn the lamp off: %v", v)
	}
}

func TestDirectSetPropDispatch(t *testing.T) {
	vm := newSSVM(t)
	if err := vm.Hub.ObjectEnters("therm", "thermostat"); err != nil {
		t.Fatal(err)
	}
	// Drive the central controller directly with a setProp script (the
	// path a ubiquitous application would use).
	s := script.New("cfg").Append(
		script.NewCommand("setProp", "object:therm").
			WithArg("prop", "setpoint").
			WithArg("value", 21.5),
	)
	if err := vm.Platform.Execute(s); err != nil {
		t.Fatal(err)
	}
	o, _ := vm.Hub.Space().Object("therm")
	if v, _ := o.Prop("setpoint"); v != 21.5 {
		t.Fatalf("setpoint: %v", v)
	}
}

func TestRuleForMissingNodeSurfacesEvent(t *testing.T) {
	vm := newSSVM(t)
	d := vm.Platform.UI.NewDraft()
	d.MustAdd("r1", "Rule").
		SetAttr("onEvent", "objectEntered").
		SetAttr("subject", "*").
		SetAttr("targetObject", "ghostLamp").
		SetAttr("prop", "on").
		SetAttr("value", "true")
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}
	// Entering any object fires the rule whose target has no node; the
	// fabric reports ruleFailed to the central platform, which simply has
	// no handler for it (evented, not fatal).
	if err := vm.Hub.ObjectEnters("badge1", "badge"); err != nil {
		t.Fatal(err)
	}
}

func TestHubErrors(t *testing.T) {
	h := NewHub()
	if err := h.Execute(script.NewCommand("mystery", "t")); err == nil {
		t.Error("unknown op must fail")
	}
	if err := h.Execute(script.NewCommand("setProp", "object:ghost").WithArg("prop", "p").WithArg("value", 1)); err == nil {
		t.Error("setProp on unknown node must fail")
	}
	if err := h.ObjectLeaves("ghost"); err == nil {
		t.Error("leave of unknown object must fail")
	}
	// Re-entry reuses the node.
	if err := h.ObjectEnters("o1", "lamp"); err != nil {
		t.Fatal(err)
	}
	if err := h.ObjectLeaves("o1"); err != nil {
		t.Fatal(err)
	}
	if err := h.ObjectEnters("o1", ""); err != nil {
		t.Fatal(err)
	}
	if h.NodeCount() != 1 {
		t.Errorf("nodes: %d", h.NodeCount())
	}
}

func TestCoverageComplete(t *testing.T) {
	def := core.Definition{
		Name: "2svm", DSML: Metamodel(), Middleware: CentralModel(),
		DSK: core.DSK{LTSes: map[string]*lts.LTS{LTSName: SynthesisLTS()}},
	}
	cov, err := core.AnalyzeCoverage(def)
	if err != nil {
		t.Fatal(err)
	}
	if !cov.Complete() {
		t.Fatalf("2SVM coverage incomplete: %v", cov.UnroutableOps)
	}
}
