package mwmeta

import (
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/metamodel"
)

func TestMMValidates(t *testing.T) {
	mm := MM()
	if mm.Name != Name {
		t.Errorf("name: %s", mm.Name)
	}
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	// All layer classes inherit from Layer.
	for _, c := range []string{ClassUILayer, ClassSynthesisLayer, ClassControllerLayer, ClassBrokerLayer} {
		if !mm.IsSubclassOf(c, ClassLayer) {
			t.Errorf("%s should be a Layer", c)
		}
	}
}

func TestMMSerializes(t *testing.T) {
	data, err := metamodel.MarshalMetamodel(MM())
	if err != nil {
		t.Fatal(err)
	}
	back, err := metamodel.UnmarshalMetamodel(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.ClassNames()) != len(MM().ClassNames()) {
		t.Error("class count after round trip")
	}
}

func TestBuilderProducesConformingModel(t *testing.T) {
	b := NewBuilder("test-vm", "testing")
	b.UILayer("uci")
	b.SynthesisLayer("se", "sem")
	b.ControllerLayer("ucm").
		Options(8, true).
		Action("setMedia", "setMedia", "media != ''", StepSpec{
			Op: "reconfigure", Target: "{target}",
			Args: map[string]string{"media": "{media}"},
		}).
		EventAction("onFail", "streamFailed", "", false, "",
			StepSpec{Op: "recover", Target: "stream:{stream}"}).
		Class("play", "op.play").
		Policy(PolicySpec{Name: "mem", Priority: 5, Condition: "memoryLow",
			Effects: map[string]string{"case": "intent"}}).
		Done().
		BrokerLayer("ncb").
		Action("open", "svcOpen", "", StepSpec{Op: "openStream", Target: "{target}"}).
		EventAction("fwd", "*", "", true).
		Symptom("low", "battery < 20").
		ChangePlan("low", StepSpec{Op: "shed", Target: "d:1"}).
		Bind("*", "main")

	if err := b.Validate(); err != nil {
		t.Fatalf("builder model must conform: %v", err)
	}

	m := b.Model()
	if len(m.ObjectsOf(ClassPlatform)) != 1 {
		t.Error("one platform object")
	}
	mm := MM()
	layers := m.ObjectsKindOf(mm, ClassLayer)
	if len(layers) != 4 {
		t.Errorf("layers: %d", len(layers))
	}
	// Steps carry order and args.
	steps := m.ObjectsOf(ClassStep)
	if len(steps) != 4 {
		t.Errorf("steps: %d", len(steps))
	}
}

// TestBrokerLayerDeclaresNoPolicies: policy rules are a Controller
// feature. A Broker layer that declares one does not conform, rather than
// carrying a rule the Broker never consults.
func TestBrokerLayerDeclaresNoPolicies(t *testing.T) {
	b := NewBuilder("vm", "d")
	b.BrokerLayer("ncb").Bind("*", "main")
	pol := b.Model().NewObject("pol-x", ClassPolicy).
		SetAttr("name", "p").SetAttr("condition", "true")
	for _, o := range b.Model().ObjectsOf(ClassBrokerLayer) {
		o.AddRef("policies", pol.ID)
	}
	err := b.Validate()
	if err == nil || !strings.Contains(err.Error(), "policies") {
		t.Fatalf("got %v, want a conformance error naming policies", err)
	}
}

func TestBuilderModelSerializes(t *testing.T) {
	b := NewBuilder("vm", "d")
	b.BrokerLayer("ncb").Bind("*", "main")
	data, err := metamodel.MarshalModel(b.Model())
	if err != nil {
		t.Fatal(err)
	}
	back, err := metamodel.UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(MM()); err != nil {
		t.Fatalf("round-tripped middleware model must conform: %v", err)
	}
	if !metamodel.Equal(b.Model(), back) {
		t.Error("round trip equality")
	}
}

func TestBuilderRejectsIncompleteModel(t *testing.T) {
	b := NewBuilder("vm", "d")
	// Platform without layers misses the required reference.
	err := b.Validate()
	if err == nil || !strings.Contains(err.Error(), "required reference") {
		t.Fatalf("got %v", err)
	}
}

func TestLayerSuppressionModels(t *testing.T) {
	// 2SVM smart object: controller + broker only.
	b := NewBuilder("2svm-object", "smartspace")
	b.ControllerLayer("mw").Done().BrokerLayer("broker").Bind("*", "main")
	if err := b.Validate(); err != nil {
		t.Fatalf("suppressed-layer model must conform: %v", err)
	}
}
