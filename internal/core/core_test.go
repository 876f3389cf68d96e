package core

import (
	"strings"
	"sync"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/eu"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

// rec is a thread-safe recording adapter.
type rec struct {
	mu    sync.Mutex
	trace script.Trace
}

func (r *rec) Execute(cmd script.Command) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace.Record(cmd)
	return nil
}

func (r *rec) text() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.String()
}

func dsml(t testing.TB) *metamodel.Metamodel {
	t.Helper()
	mm := metamodel.New("app-dsml")
	mm.MustAddClass(&metamodel.Class{Name: "Task", Attributes: []metamodel.Attribute{
		{Name: "kind", Kind: metamodel.KindString, Required: true},
	}, References: []metamodel.Reference{
		{Name: "next", Target: "Task"},
	}})
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	return mm
}

func goodLTS() *lts.LTS {
	l := lts.New("sem", "run")
	l.On("run", "add-object:Task", "", "run",
		lts.CommandTemplate{Op: "startTask", Target: "task:{id}",
			Args: map[string]string{"kind": "{kind}"}})
	l.On("run", "remove-object:Task", "", "run",
		lts.CommandTemplate{Op: "stopTask", Target: "task:{id}"})
	l.On("run", "set-attr:Task.kind", "", "run",
		lts.CommandTemplate{Op: "retask", Target: "task:{id}"})
	l.On("run", "add-ref:Task.next", "", "run")
	l.On("run", "event:taskDied", "", "run",
		lts.CommandTemplate{Op: "startTask", Target: "task:{task}",
			Args: map[string]string{"kind": "restart"}})
	return l
}

func taxonomy() *dsc.Taxonomy {
	tx := dsc.NewTaxonomy()
	tx.MustAdd(&dsc.DSC{ID: "op.start", Domain: "d", Category: dsc.Operation})
	return tx
}

func goodDef(t testing.TB) Definition {
	t.Helper()
	b := mwmeta.NewBuilder("task-vm", "tasks")
	b.UILayer("ui")
	b.SynthesisLayer("se", "sem")
	b.ControllerLayer("ctl").
		Action("stop", "stopTask,retask", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Class("startTask", "op.start").
		Done().
		BrokerLayer("brk").
		PassthroughAction("all", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "main")
	return Definition{
		Name:       "taskdef",
		DSML:       dsml(t),
		Middleware: b.Model(),
		DSK: DSK{
			Taxonomy: taxonomy(),
			Procedures: []*registry.Procedure{{
				ID: "starter", ClassifiedBy: "op.start", Cost: 1,
				Unit: eu.NewUnit("starter", eu.Invoke("svcStart", "{target}", "kind", "kind")),
			}},
			LTSes: map[string]*lts.LTS{"sem": goodLTS()},
		},
	}
}

// build checks def and builds one platform of it, bound to r.
func build(t testing.TB, def Definition, r *rec) (*runtime.Platform, error) {
	t.Helper()
	c, err := Check(def)
	if err != nil {
		t.Fatal(err)
	}
	return Build(c, Bindings{Adapters: map[string]broker.Adapter{"main": r}}, runtime.Config{})
}

func TestBuildAndRunEndToEnd(t *testing.T) {
	r := &rec{}
	p, err := build(t, goodDef(t), r)
	if err != nil {
		t.Fatal(err)
	}
	draft := p.UI.NewDraft()
	draft.MustAdd("t1", "Task").SetAttr("kind", "batch")
	if _, err := draft.Submit(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.text(), `svcStart task:t1 kind="batch"`) {
		t.Errorf("trace:\n%s", r.text())
	}
	// Event-driven restart through synthesis (event:taskDied).
	if err := p.DeliverEvent(broker.Event{Name: "taskDied", Attrs: map[string]any{"task": "t1"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.text(), `svcStart task:t1 kind="restart"`) {
		t.Errorf("restart trace:\n%s", r.text())
	}
}

func TestValidateRejectsNonconformantLTS(t *testing.T) {
	type mut func(*lts.LTS)
	tests := []struct {
		name string
		add  mut
		want string
	}{
		{"unknown class", func(l *lts.LTS) { l.On("run", "add-object:Ghost", "", "run") }, "class \"Ghost\""},
		{"unknown attr", func(l *lts.LTS) { l.On("run", "set-attr:Task.ghost", "", "run") }, "no attribute"},
		{"unknown ref", func(l *lts.LTS) { l.On("run", "add-ref:Task.ghost", "", "run") }, "no reference"},
		{"bad attr pattern", func(l *lts.LTS) { l.On("run", "set-attr:Task", "", "run") }, "want <Class>.<attribute>"},
		{"bad ref pattern", func(l *lts.LTS) { l.On("run", "remove-ref:Task", "", "run") }, "want <Class>.<reference>"},
		{"unknown remove class", func(l *lts.LTS) { l.On("run", "remove-object:Ghost", "", "run") }, "class \"Ghost\""},
		{"unknown set class", func(l *lts.LTS) { l.On("run", "set-attr:Ghost.kind", "", "run") }, "class \"Ghost\""},
		{"unknown ref class", func(l *lts.LTS) { l.On("run", "add-ref:Ghost.next", "", "run") }, "class \"Ghost\""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			def := goodDef(t)
			l := goodLTS()
			tt.add(l)
			def.DSK.LTSes["sem"] = l
			err := def.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("want %q, got %v", tt.want, err)
			}
		})
	}
}

func TestValidateAcceptsWildcardsAndFreeEvents(t *testing.T) {
	def := goodDef(t)
	l := goodLTS()
	l.On("run", "*", "", "run")
	l.On("run", "add-object:*", "", "run")
	l.On("run", "event:anything", "", "run")
	l.On("run", "custom:vocabulary", "", "run")
	def.DSK.LTSes["sem"] = l
	if err := def.Validate(); err != nil {
		t.Fatalf("wildcards must be tolerated: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("nil middleware", func(t *testing.T) {
		def := goodDef(t)
		def.Middleware = nil
		if err := def.Validate(); err == nil {
			t.Error("want error")
		}
	})
	t.Run("bad middleware model", func(t *testing.T) {
		def := goodDef(t)
		def.Middleware = metamodel.NewModel(mwmeta.Name)
		def.Middleware.NewObject("x", "Bogus")
		if err := def.Validate(); err == nil || !strings.Contains(err.Error(), "middleware model") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad dsml", func(t *testing.T) {
		def := goodDef(t)
		bad := metamodel.New("bad")
		bad.MustAddClass(&metamodel.Class{Name: "A", Super: "Ghost"})
		def.DSML = bad
		if err := def.Validate(); err == nil || !strings.Contains(err.Error(), "DSML") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad taxonomy", func(t *testing.T) {
		def := goodDef(t)
		tx := dsc.NewTaxonomy()
		tx.MustAdd(&dsc.DSC{ID: "a", Parent: "ghost", Category: dsc.Operation})
		def.DSK.Taxonomy = tx
		if err := def.Validate(); err == nil || !strings.Contains(err.Error(), "taxonomy") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("procedures without taxonomy", func(t *testing.T) {
		def := goodDef(t)
		def.DSK.Taxonomy = nil
		if err := def.Validate(); err == nil || !strings.Contains(err.Error(), "no taxonomy") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad procedure", func(t *testing.T) {
		def := goodDef(t)
		def.DSK.Procedures = append(def.DSK.Procedures, &registry.Procedure{
			ID: "bad", ClassifiedBy: "op.ghost",
		})
		if err := def.Validate(); err == nil || !strings.Contains(err.Error(), "unknown classifier") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad lts", func(t *testing.T) {
		def := goodDef(t)
		bad := lts.New("sem", "a")
		bad.AddTransition(lts.Transition{From: "ghost", Event: "e", To: "a"})
		def.DSK.LTSes["sem"] = bad
		if err := def.Validate(); err == nil || !strings.Contains(err.Error(), "lts") {
			t.Errorf("got %v", err)
		}
	})
}

// TestCheckSealsSharedParts: Check seals the taxonomy and the repository
// every platform of the definition shares; Validate leaves the caller's
// taxonomy open.
func TestCheckSealsSharedParts(t *testing.T) {
	def := goodDef(t)
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := def.DSK.Taxonomy.Add(&dsc.DSC{ID: "op.extra", Category: dsc.Operation}); err != nil {
		t.Fatalf("Validate sealed the taxonomy: %v", err)
	}
	c, err := Check(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := def.DSK.Taxonomy.Add(&dsc.DSC{ID: "op.more", Category: dsc.Operation}); err == nil {
		t.Error("Add on a checked definition's taxonomy succeeded")
	}
	if err := c.repo.Remove("starter"); err == nil {
		t.Error("Remove on a checked definition's repository succeeded")
	}
	if err := c.repo.Add(&registry.Procedure{ID: "more", ClassifiedBy: "op.start"}); err == nil {
		t.Error("Add on a checked definition's repository succeeded")
	}
}

func TestBuildPropagatesRuntimeErrors(t *testing.T) {
	c, err := Check(goodDef(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(c, Bindings{}, runtime.Config{})
	if err == nil || !strings.Contains(err.Error(), "unknown adapter") {
		t.Errorf("got %v", err)
	}
}

func TestDefinitionWithoutProceduresBuildsNoRepository(t *testing.T) {
	r := &rec{}
	def := goodDef(t)
	def.DSK.Procedures = nil
	// Remove the command class that would then dangle.
	for _, o := range def.Middleware.ObjectsOf(mwmeta.ClassCommandClass) {
		if err := def.Middleware.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range def.Middleware.ObjectsOf(mwmeta.ClassControllerLayer) {
		for _, ref := range o.Refs("classes") {
			o.RemoveRef("classes", ref)
		}
	}
	p, err := build(t, def, r)
	if err != nil {
		t.Fatal(err)
	}
	if p.Controller == nil {
		t.Fatal("controller expected")
	}
}
