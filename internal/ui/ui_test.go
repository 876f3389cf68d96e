package ui

import (
	"errors"
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/script"
)

func dsml(t *testing.T) *metamodel.Metamodel {
	t.Helper()
	mm := metamodel.New("toy")
	mm.MustAddClass(&metamodel.Class{Name: "Base", Abstract: true})
	mm.MustAddClass(&metamodel.Class{Name: "Thing", Super: "Base", Attributes: []metamodel.Attribute{
		{Name: "name", Kind: metamodel.KindString, Required: true},
	}, References: []metamodel.Reference{
		{Name: "next", Target: "Thing"},
	}})
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	return mm
}

func newUI(t *testing.T) (*UI, *[]*metamodel.Model) {
	t.Helper()
	var submitted []*metamodel.Model
	u, err := New("ui", dsml(t), func(m *metamodel.Model) (*script.Script, error) {
		submitted = append(submitted, m.Clone())
		return script.New("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return u, &submitted
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New("u", nil, func(*metamodel.Model) (*script.Script, error) { return nil, nil }); err == nil {
		t.Error("nil DSML")
	}
	if _, err := New("u", dsml(t), nil); err == nil {
		t.Error("nil submit")
	}
}

func TestDraftEditing(t *testing.T) {
	u, submitted := newUI(t)
	d := u.NewDraft()
	o, err := d.Add("t1", "Thing")
	if err != nil {
		t.Fatal(err)
	}
	o.SetAttr("name", "first")
	if _, err := d.Add("t1", "Thing"); err == nil {
		t.Error("duplicate ID")
	}
	if _, err := d.Add("x", "Ghost"); err == nil {
		t.Error("unknown class")
	}
	if _, err := d.Add("x", "Base"); err == nil {
		t.Error("abstract class")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("draft should validate: %v", err)
	}
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}
	if len(*submitted) != 1 || (*submitted)[0].Len() != 1 {
		t.Errorf("submitted: %v", *submitted)
	}
	if d.Object("t1") == nil || d.Object("ghost") != nil {
		t.Error("Object lookup")
	}
	if d.Model().Len() != 1 {
		t.Error("Model accessor")
	}
}

func TestDraftValidateCatchesMissingRequired(t *testing.T) {
	u, _ := newUI(t)
	d := u.NewDraft()
	d.MustAdd("t1", "Thing")
	if err := d.Validate(); err == nil {
		t.Error("missing required attribute must fail validation")
	}
}

func TestDraftRemoveCleansReferences(t *testing.T) {
	u, _ := newUI(t)
	d := u.NewDraft()
	d.MustAdd("a", "Thing").SetAttr("name", "a").SetRef("next", "b")
	d.MustAdd("b", "Thing").SetAttr("name", "b")
	if err := d.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if len(d.Object("a").Refs("next")) != 0 {
		t.Error("dangling reference must be cleaned")
	}
	if err := d.Remove("ghost"); err == nil {
		t.Error("removing absent object must fail")
	}
}

func TestRuntimeModelRoundTrip(t *testing.T) {
	u, _ := newUI(t)
	var notified int
	var gotModel *metamodel.Model
	var gotChanges metamodel.ChangeList
	u.Subscribe(func(m *metamodel.Model, changes metamodel.ChangeList) {
		notified++
		gotModel, gotChanges = m, changes
	})

	m := metamodel.NewModel("toy")
	m.NewObject("t1", "Thing").SetAttr("name", "live")
	changes := metamodel.Diff(metamodel.NewModel("toy"), m)
	u.OnRuntimeModel(m, changes)

	if notified != 1 {
		t.Errorf("subscriber notifications: %d", notified)
	}
	// The committed model and its change list pass through uncopied.
	if gotModel != m || u.Committed() != m || len(gotChanges) != len(changes) {
		t.Errorf("published model or change list was copied or altered")
	}
	got := u.RuntimeModel()
	if got.Len() != 1 || got.Get("t1").StringAttr("name") != "live" {
		t.Errorf("runtime model: %v", got.Objects())
	}
	// Mutating the returned copy must not affect the stored model.
	got.Get("t1").SetAttr("name", "hacked")
	if u.RuntimeModel().Get("t1").StringAttr("name") != "live" {
		t.Error("RuntimeModel must return a copy")
	}

	// EditDraft seeds from the runtime model.
	d := u.EditDraft()
	if d.Object("t1") == nil {
		t.Error("EditDraft must seed from runtime model")
	}
	d.Object("t1").SetAttr("name", "edited")
	if u.RuntimeModel().Get("t1").StringAttr("name") != "live" {
		t.Error("draft edits must not leak into the runtime model")
	}
}

func TestSubmitErrorsPropagate(t *testing.T) {
	u, err := New("u", dsml(t), func(*metamodel.Model) (*script.Script, error) {
		return nil, errors.New("synthesis says no")
	})
	if err != nil {
		t.Fatal(err)
	}
	d := u.NewDraft()
	d.MustAdd("t1", "Thing").SetAttr("name", "x")
	if _, err := d.Submit(); err == nil || !strings.Contains(err.Error(), "says no") {
		t.Errorf("got %v", err)
	}
}

func TestMustAddPanics(t *testing.T) {
	u, _ := newUI(t)
	d := u.NewDraft()
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd should panic on unknown class")
		}
	}()
	d.MustAdd("x", "Ghost")
}

func TestAccessors(t *testing.T) {
	u, _ := newUI(t)
	if u.Name() != "ui" || u.DSML() == nil {
		t.Error("accessors")
	}
}

func TestSubmitWoven(t *testing.T) {
	u, submitted := newUI(t)
	base := metamodel.NewModel("toy")
	base.NewObject("t1", "Thing").SetAttr("name", "core")
	extra := metamodel.NewModel("toy")
	extra.NewObject("t1", "Thing").SetRef("next", "t2")
	extra.NewObject("t2", "Thing").SetAttr("name", "concern")

	if _, err := u.SubmitWoven(base, extra); err != nil {
		t.Fatal(err)
	}
	if len(*submitted) != 1 {
		t.Fatalf("submissions: %d", len(*submitted))
	}
	woven := (*submitted)[0]
	if woven.Len() != 2 || woven.Get("t1").Ref("next") != "t2" {
		t.Errorf("woven model: %v", woven.Objects())
	}
}

func TestSubmitWovenErrors(t *testing.T) {
	u, _ := newUI(t)
	a := metamodel.NewModel("toy")
	a.NewObject("x", "Thing").SetAttr("name", "one")
	b := metamodel.NewModel("toy")
	b.NewObject("x", "Thing").SetAttr("name", "two")
	if _, err := u.SubmitWoven(a, b); err == nil || !strings.Contains(err.Error(), "weave") {
		t.Errorf("conflicting weave must fail: %v", err)
	}
	// A weave that produces a non-conformant model is rejected before
	// submission.
	c := metamodel.NewModel("toy")
	c.NewObject("y", "Thing") // missing required name
	if _, err := u.SubmitWoven(c); err == nil || !strings.Contains(err.Error(), "does not conform") {
		t.Errorf("non-conformant weave must fail: %v", err)
	}
}
