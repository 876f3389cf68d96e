package runtime

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/eu"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/script"
)

// toyDSML: Session contains Streams.
func toyDSML(t testing.TB) *metamodel.Metamodel {
	t.Helper()
	mm := metamodel.New("toy-dsml")
	mm.MustAddClass(&metamodel.Class{Name: "Session", References: []metamodel.Reference{
		{Name: "streams", Target: "Stream", Containment: true, Many: true},
	}})
	mm.MustAddClass(&metamodel.Class{Name: "Stream", Attributes: []metamodel.Attribute{
		{Name: "media", Kind: metamodel.KindString, Required: true},
	}})
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	return mm
}

func toyLTS() *lts.LTS {
	l := lts.New("sem", "run")
	l.On("run", "add-object:Session", "", "run",
		lts.CommandTemplate{Op: "createSession", Target: "session:{id}"})
	l.On("run", "add-object:Stream", "", "run",
		lts.CommandTemplate{Op: "openStream", Target: "stream:{id}",
			Args: map[string]string{"media": "{media}"}})
	l.On("run", "remove-object:Stream", "", "run",
		lts.CommandTemplate{Op: "closeStream", Target: "stream:{id}"})
	return l
}

func toyRepo(t testing.TB) *registry.Repository {
	t.Helper()
	tx := dsc.NewTaxonomy()
	tx.MustAdd(&dsc.DSC{ID: "op.open", Domain: "toy", Category: dsc.Operation})
	r := registry.NewRepository(tx)
	r.MustAdd(&registry.Procedure{
		ID: "opener", ClassifiedBy: "op.open", Cost: 1,
		Unit: eu.NewUnit("opener", eu.Invoke("svcOpen", "{target}", "media", "media")),
	})
	return r
}

// fullModel authors the four-layer middleware model used in most tests.
func fullModel(t testing.TB) *metamodel.Model {
	t.Helper()
	b := mwmeta.NewBuilder("toy-vm", "toy")
	b.UILayer("uci")
	b.SynthesisLayer("se", "sem")
	b.ControllerLayer("ucm").
		Action("createSession", "createSession", "",
			mwmeta.StepSpec{Op: "svcCreate", Target: "{target}"}).
		Action("closeStream", "closeStream", "",
			mwmeta.StepSpec{Op: "svcClose", Target: "{target}"}).
		Class("openStream", "op.open").
		EventAction("onFail", "streamFailed", "", false, "",
			mwmeta.StepSpec{Op: "svcRecover", Target: "stream:{stream}"}).
		Done().
		BrokerLayer("ncb").
		// Action order matters: the media-forwarding action is declared
		// first so svcOpen matches it; everything else passes through.
		Action("withMedia", "svcOpen", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}",
				Args: map[string]string{"media": "{media}"}}).
		Action("passthrough", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "main")
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.Model()
}

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

func (r *rec) lines() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.Lines()
}

func (r *rec) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace = script.Trace{}
}

func buildFull(t testing.TB) (*Platform, *rec) {
	t.Helper()
	r := &rec{}
	p, err := Build(fullModel(t), Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": r},
		Repository: toyRepo(t),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

func TestBuildFullStack(t *testing.T) {
	p, _ := buildFull(t)
	if p.Name != "toy-vm" || p.Domain != "toy" {
		t.Errorf("identity: %s/%s", p.Name, p.Domain)
	}
	if p.UI == nil || p.Synthesis == nil || p.Controller == nil || p.Broker == nil {
		t.Fatal("all four layers must be instantiated")
	}
}

func TestEndToEndModelSubmission(t *testing.T) {
	p, r := buildFull(t)

	// Author an application model through the UI layer and submit.
	draft := p.UI.NewDraft()
	draft.MustAdd("s1", "Session").SetRef("streams", "st1")
	draft.MustAdd("st1", "Stream").SetAttr("media", "audio")
	out, err := draft.Submit()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("script: %s", out)
	}

	text := strings.Join(r.lines(), "\n")
	// createSession took the Case-1 path (predefined action), openStream
	// took Case 2 (intent generation through the repository).
	for _, want := range []string{"svcCreate session:s1", `svcOpen stream:st1 media="audio"`} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// The runtime model reached the UI layer, uncopied.
	if p.UI.RuntimeModel().Len() != 2 {
		t.Error("runtime model not published to UI")
	}
	if p.UI.Committed() != p.Synthesis.Committed() {
		t.Error("the UI layer holds a copy of the committed model, not the model itself")
	}

	// models@runtime: editing the draft and resubmitting produces only
	// the delta.
	r.reset()
	edit := p.UI.EditDraft()
	if err := edit.Remove("st1"); err != nil {
		t.Fatal(err)
	}
	if _, err := edit.Submit(); err != nil {
		t.Fatal(err)
	}
	text = strings.Join(r.lines(), "\n")
	if !strings.Contains(text, "svcClose stream:st1") || strings.Contains(text, "svcCreate") {
		t.Errorf("delta script:\n%s", text)
	}
}

func TestEventFlowsUpThroughLayers(t *testing.T) {
	p, r := buildFull(t)
	// A resource event enters the Broker (unmatched there), reaches the
	// Controller's event handler, which recovers via a broker call.
	err := p.DeliverEvent(broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "st9"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(r.lines(), "\n"), "svcRecover stream:st9") {
		t.Errorf("recovery trace:\n%s", strings.Join(r.lines(), "\n"))
	}
}

func TestEventPump(t *testing.T) {
	p, r := buildFull(t)
	p.Start()
	defer p.Stop()
	if !p.PostEvent(broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "stA"}}) {
		t.Fatal("PostEvent while running")
	}
	deadline := time.After(2 * time.Second)
	for {
		if strings.Contains(strings.Join(r.lines(), "\n"), "svcRecover stream:stA") {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("pump did not deliver; trace:\n%s", strings.Join(r.lines(), "\n"))
		default:
			time.Sleep(time.Millisecond)
		}
	}
	p.Stop()
	if p.PostEvent(broker.Event{Name: "x"}) {
		t.Error("PostEvent after Stop must report false")
	}
	// Idempotency.
	p.Start()
	p.Start()
	p.Stop()
	p.Stop()
}

func TestLayerSuppressionControllerBroker(t *testing.T) {
	// A 2SVM-smart-object-style platform: Controller + Broker only,
	// driven by scripts, external events escape upward.
	b := mwmeta.NewBuilder("object-vm", "smartspace")
	b.ControllerLayer("mw").
		Action("setProp", "setProp", "",
			mwmeta.StepSpec{Op: "svcSet", Target: "{target}",
				Args: map[string]string{"value": "{value}"}}).
		Done().
		BrokerLayer("broker").
		Action("any", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}",
				Args: map[string]string{"value": "{value}"}}).
		Bind("*", "main")
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &rec{}
	var escaped []broker.Event
	p, err := Build(b.Model(), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p.SetExternalEvents(func(e broker.Event) { escaped = append(escaped, e) })
	if p.UI != nil || p.Synthesis != nil {
		t.Fatal("suppressed layers must be nil")
	}
	if _, err := p.SubmitModel(metamodel.NewModel("x")); err == nil {
		t.Error("SubmitModel without synthesis must fail")
	}
	s := script.New("cmds").Append(script.NewCommand("setProp", "object:lamp1").WithArg("value", true))
	if err := p.Execute(s); err != nil {
		t.Fatal(err)
	}
	if r.lines()[0] != "svcSet object:lamp1 value=true" {
		t.Errorf("trace: %v", r.lines())
	}
	// Events with no handler anywhere escape to the external sink.
	if err := p.DeliverEvent(broker.Event{Name: "objectLeft"}); err != nil {
		t.Fatal(err)
	}
	if len(escaped) != 1 || escaped[0].Name != "objectLeft" {
		t.Errorf("escaped events: %v", escaped)
	}
}

func TestExecuteWithoutController(t *testing.T) {
	b := mwmeta.NewBuilder("broker-only", "d")
	b.BrokerLayer("broker").Action("any", "*", "").Bind("*", "main")
	p, err := Build(b.Model(), Deps{Adapters: map[string]broker.Adapter{"main": &rec{}}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Execute(script.New("s")); err == nil {
		t.Error("Execute without controller must fail")
	}
}

func TestBuildConsistencyErrors(t *testing.T) {
	dsml := toyDSML(t)
	adapters := map[string]broker.Adapter{"main": &rec{}}

	t.Run("nonconforming model", func(t *testing.T) {
		m := metamodel.NewModel(mwmeta.Name)
		m.NewObject("x", "Bogus")
		if _, err := Build(m, Deps{}, Config{}); err == nil || !strings.Contains(err.Error(), "conform") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("no platform", func(t *testing.T) {
		m := metamodel.NewModel(mwmeta.Name)
		if _, err := Build(m, Deps{}, Config{}); err == nil || !strings.Contains(err.Error(), "exactly one Platform") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("controller without broker", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.ControllerLayer("c")
		_, err := Build(b.Model(), Deps{}, Config{})
		if err == nil || !strings.Contains(err.Error(), "requires a BrokerLayer") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("synthesis without controller", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.SynthesisLayer("s", "sem")
		b.BrokerLayer("br").Bind("*", "main")
		_, err := Build(b.Model(), Deps{Adapters: adapters}, Config{})
		if err == nil || !strings.Contains(err.Error(), "requires a ControllerLayer") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("ui without synthesis", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.UILayer("u")
		b.ControllerLayer("c")
		b.BrokerLayer("br").Bind("*", "main")
		_, err := Build(b.Model(), Deps{Adapters: adapters}, Config{})
		if err == nil || !strings.Contains(err.Error(), "requires a SynthesisLayer") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("no broker at all", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.Model().NewObject("lay", mwmeta.ClassUILayer).SetAttr("name", "u")
		b.Model().Get("platform").AddRef("layers", "lay")
		_, err := Build(b.Model(), Deps{DSML: dsml}, Config{})
		if err == nil {
			t.Error("want error")
		}
	})
	t.Run("unknown adapter", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.BrokerLayer("br").Bind("*", "ghost")
		_, err := Build(b.Model(), Deps{}, Config{})
		if err == nil || !strings.Contains(err.Error(), "unknown adapter") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("unknown lts", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.SynthesisLayer("s", "ghost")
		b.ControllerLayer("c").Done()
		b.BrokerLayer("br").Bind("*", "main")
		_, err := Build(b.Model(), Deps{DSML: dsml, Adapters: adapters}, Config{})
		if err == nil || !strings.Contains(err.Error(), "unknown LTS") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("synthesis without dsml", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.SynthesisLayer("s", "sem")
		b.ControllerLayer("c").Done()
		b.BrokerLayer("br").Bind("*", "main")
		_, err := Build(b.Model(), Deps{Adapters: adapters, LTSes: map[string]*lts.LTS{"sem": toyLTS()}}, Config{})
		if err == nil || !strings.Contains(err.Error(), "no DSML") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("command class without repository", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.ControllerLayer("c").Class("x", "op.ghost").Done()
		b.BrokerLayer("br").Bind("*", "main")
		_, err := Build(b.Model(), Deps{Adapters: adapters}, Config{})
		if err == nil || !strings.Contains(err.Error(), "no procedure repository") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("command class unknown dsc", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.ControllerLayer("c").Class("x", "op.ghost").Done()
		b.BrokerLayer("br").Bind("*", "main")
		_, err := Build(b.Model(), Deps{Adapters: adapters, Repository: toyRepo(t)}, Config{})
		if err == nil || !strings.Contains(err.Error(), "not in taxonomy") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad guard expression", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.BrokerLayer("br").Action("a", "x", "((").Bind("*", "main")
		_, err := Build(b.Model(), Deps{Adapters: adapters}, Config{})
		if err == nil || !strings.Contains(err.Error(), "guard") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad policy condition", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.ControllerLayer("c").Policy(mwmeta.PolicySpec{Name: "p", Condition: "(("}).Done()
		b.BrokerLayer("br").Bind("*", "main")
		_, err := Build(b.Model(), Deps{Adapters: adapters}, Config{})
		if err == nil || !strings.Contains(err.Error(), "policy") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("bad symptom condition", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.BrokerLayer("br").Symptom("s", "((").Bind("*", "main")
		_, err := Build(b.Model(), Deps{Adapters: adapters}, Config{})
		if err == nil || !strings.Contains(err.Error(), "symptom") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("installed script on broker rejected", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		bb := b.BrokerLayer("br")
		bb.Bind("*", "main")
		// Hand-author a broker event action with a scriptName.
		ev := b.Model().NewObject("evx", mwmeta.ClassEventAction).
			SetAttr("name", "bad").SetAttr("event", "e").SetAttr("scriptName", "s")
		for _, o := range b.Model().ObjectsOf(mwmeta.ClassBrokerLayer) {
			o.AddRef("eventActions", ev.ID)
		}
		_, err := Build(b.Model(), Deps{Adapters: adapters,
			Scripts: map[string]*script.Script{"s": script.New("s")}}, Config{})
		if err == nil || !strings.Contains(err.Error(), "Controller-layer feature") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("unknown installed script", func(t *testing.T) {
		b := mwmeta.NewBuilder("vm", "d")
		b.ControllerLayer("c").EventAction("e", "ev", "", false, "ghost").Done()
		b.BrokerLayer("br").Bind("*", "main")
		_, err := Build(b.Model(), Deps{Adapters: adapters}, Config{})
		if err == nil || !strings.Contains(err.Error(), "unknown installed script") {
			t.Errorf("got %v", err)
		}
	})
}

func TestSplitOps(t *testing.T) {
	tests := []struct {
		in   string
		want string
	}{
		{"a", "a"},
		{"a,b,c", "a|b|c"},
		{"", ""},
		{"a,,b", "a|b"},
		{"open, close", "open|close"},
		{" open ,\tclose ", "open|close"},
		{"  ", ""},
		{"a, ,b", "a|b"},
	}
	for _, tt := range tests {
		got := strings.Join(splitOps(tt.in), "|")
		if got != tt.want {
			t.Errorf("splitOps(%q) = %q want %q", tt.in, got, tt.want)
		}
	}
}

func TestCallerModelNotMutatedByDefaults(t *testing.T) {
	m := fullModel(t)
	before, err := metamodel.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(m, Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": &rec{}},
		Repository: toyRepo(t),
	}, Config{}); err != nil {
		t.Fatal(err)
	}
	after, err := metamodel.MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("Build must not mutate the caller's middleware model")
	}
}

func TestConcurrentSubmissionsAndEvents(t *testing.T) {
	// Full-stack stress: concurrent model submissions through the UI while
	// resource events pour in through the pump. Exercises the layer
	// serialisation (synthesis busy/pending queue, broker/controller event
	// drains) under the race detector.
	p, _ := buildFull(t)
	p.Start()
	defer p.Stop()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			draft := p.UI.NewDraft()
			draft.MustAdd("s1", "Session").SetRef("streams", "st1")
			draft.MustAdd("st1", "Stream").SetAttr("media", "audio")
			if _, err := draft.Submit(); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			empty := p.UI.NewDraft()
			if _, err := empty.Submit(); err != nil {
				t.Errorf("teardown %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			p.PostEvent(broker.Event{Name: "streamFailed",
				Attrs: map[string]any{"stream": fmt.Sprintf("st%d", i)}})
		}
	}()
	wg.Wait()
}

func TestAutonomicMonitorLoop(t *testing.T) {
	// A broker-only platform with a symptom; the monitor's probe publishes
	// "pressure" into the broker context and the loop evaluates symptoms.
	b := mwmeta.NewBuilder("mon-vm", "d")
	b.BrokerLayer("brk").
		Symptom("overPressure", "pressure > 10").
		ChangePlan("overPressure",
			mwmeta.StepSpec{Op: "ventValve", Target: "valve:1"}).
		PassthroughAction("pass", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "main")
	r := &rec{}
	p, err := Build(b.Model(), Deps{Adapters: map[string]broker.Adapter{"main": r}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pressure := 0
	p.Monitor(2*time.Millisecond, func() {
		pressure += 6
		p.Broker.Context().Set("pressure", pressure)
	})
	p.Monitor(time.Hour, nil) // idempotent
	defer p.Stop()

	deadline := time.After(2 * time.Second)
	for len(p.Broker.Autonomic().Handled()) == 0 {
		select {
		case <-deadline:
			t.Fatal("monitor never triggered the change plan")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if got := strings.Join(r.lines(), ";"); !strings.Contains(got, "ventValve valve:1") {
		t.Errorf("plan steps: %s", got)
	}
	p.StopMonitor()
	p.StopMonitor() // idempotent when already stopped
}

func TestSetExternalEventsObservesTopOfStack(t *testing.T) {
	p, _ := buildFull(t)
	var mu sync.Mutex
	var seen []string
	p.SetExternalEvents(func(e broker.Event) {
		mu.Lock()
		seen = append(seen, e.Name)
		mu.Unlock()
	})
	// An event with no handlers anywhere bubbles through all four layers
	// to the external observer.
	if err := p.DeliverEvent(broker.Event{Name: "totallyUnknown"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "totallyUnknown" {
		t.Errorf("observed: %v", seen)
	}
}

func TestEventActionGuardAndForwardFromModel(t *testing.T) {
	// Exercise the factory's guard-parsing path for event actions and the
	// broker event-action with a bad guard expression.
	b := mwmeta.NewBuilder("vm", "d")
	b.BrokerLayer("brk").
		EventAction("guarded", "tick", "level > 3", false,
			mwmeta.StepSpec{Op: "acted", Target: "t"}).
		PassthroughAction("pass", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "main")
	r := &rec{}
	p, err := Build(b.Model(), Deps{Adapters: map[string]broker.Adapter{"main": r}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DeliverEvent(broker.Event{Name: "tick", Attrs: map[string]any{"level": 5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(r.lines(), ";"), "acted t") {
		t.Errorf("guarded event action: %v", r.lines())
	}

	// Bad event-action guard is rejected at build time.
	b2 := mwmeta.NewBuilder("vm2", "d")
	b2.BrokerLayer("brk").
		EventAction("broken", "tick", "((", false).
		Bind("*", "main")
	if _, err := Build(b2.Model(), Deps{Adapters: map[string]broker.Adapter{"main": r}}, Config{}); err == nil {
		t.Error("bad event guard must fail the build")
	}
}

func TestPolicyEffectsFromModel(t *testing.T) {
	// Policies with effects flow from the middleware model into the live
	// Controller: the effect forces the action case even though only an
	// intent route exists, which must then error.
	b := mwmeta.NewBuilder("vm", "d")
	b.ControllerLayer("ctl").
		Class("go", "op.open").
		Policy(mwmeta.PolicySpec{Name: "force", Priority: 9, Condition: "true",
			Effects: map[string]string{"case": "action"}}).
		Done().
		BrokerLayer("brk").Bind("*", "main")
	p, err := Build(b.Model(), Deps{
		Adapters:   map[string]broker.Adapter{"main": &rec{}},
		Repository: toyRepo(t),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Execute(script.New("s").Append(script.NewCommand("go", "t")))
	if err == nil || !strings.Contains(err.Error(), "no action handles") {
		t.Errorf("policy effect must force the action case: %v", err)
	}
}

func TestSubmitModelConformanceError(t *testing.T) {
	p, _ := buildFull(t)
	bad := metamodel.NewModel("toy-dsml")
	bad.NewObject("x", "Stream") // missing required media
	if _, err := p.SubmitModel(bad); err == nil {
		t.Error("non-conformant app model must fail")
	}
}

// blockingRec is a rec whose Execute blocks until gate is closed; entered
// is closed the first time Execute is reached, so tests can wait until
// the pump goroutine is wedged inside the adapter.
type blockingRec struct {
	rec
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (b *blockingRec) Execute(cmd script.Command) error {
	b.once.Do(func() { close(b.entered) })
	<-b.gate
	return b.rec.Execute(cmd)
}

func TestPostEventQueueFullDrops(t *testing.T) {
	b := &blockingRec{gate: make(chan struct{}), entered: make(chan struct{})}
	o := obs.New()
	p, err := Build(fullModel(t), Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": b},
		Repository: toyRepo(t),
		Tracer:     o.TracerOf(),
		Metrics:    o.MetricsOf(),
	}, Config{PumpQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	ev := func(id string) broker.Event {
		return broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": id}}
	}
	// First event: pump takes it and wedges inside the adapter.
	if !p.PostEvent(ev("st1")) {
		t.Fatal("first post must be accepted")
	}
	select {
	case <-b.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("pump never reached the adapter")
	}
	// Second event fills the 1-slot queue; third must drop, not block.
	if !p.PostEvent(ev("st2")) {
		t.Fatal("second post must fill the queue")
	}
	done := make(chan bool, 1)
	go func() { done <- p.PostEvent(ev("st3")) }()
	select {
	case ok := <-done:
		if ok {
			t.Error("post into a full queue must report false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PostEvent blocked on a full queue")
	}
	close(b.gate)
	p.Stop()

	_, m := p.Obs()
	if got := m.CounterValue(obs.MEventsPosted); got != 2 {
		t.Errorf("posted = %d, want 2", got)
	}
	if got := m.CounterValue(obs.MEventsRejected); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	// Stopped pump: a further post is a counted rejection, still
	// non-blocking.
	if p.PostEvent(ev("st4")) {
		t.Error("post after Stop must report false")
	}
	if got := m.CounterValue(obs.MEventsRejected); got != 2 {
		t.Errorf("rejected after stop = %d, want 2", got)
	}
}

// TestDeferredEventKeepsItsAttributes pins the contract that an accepted
// event's attributes stay valid until every layer has processed it. While
// a submit holds the Synthesis layer, a pumped event reaching the layer is
// deferred, and the pump counts it delivered; the layer processes it only
// once the submit finishes, so it must still see the event's payload then.
func TestDeferredEventKeepsItsAttributes(t *testing.T) {
	b := &blockingRec{gate: make(chan struct{}), entered: make(chan struct{})}
	m := obs.NewMetrics()
	l := toyLTS()
	l.On("run", "event:ping", "", "run",
		lts.CommandTemplate{Op: "createSession", Target: "session:{who}"})
	p, err := Build(fullModel(t), Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": l},
		Adapters:   map[string]broker.Adapter{"main": b},
		Repository: toyRepo(t),
		Metrics:    m,
	}, Config{PumpShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	submitted := make(chan error, 1)
	go func() {
		draft := p.UI.NewDraft()
		draft.MustAdd("s1", "Session")
		_, err := draft.Submit()
		submitted <- err
	}()
	select {
	case <-b.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("the submit never reached the adapter")
	}
	if !p.PostEvent(broker.Event{Name: "ping", Attrs: map[string]any{"who": "alice"}}) {
		t.Fatal("post rejected")
	}
	// Let the pump deliver the event into the busy layer. A layer that
	// waits for the submit instead of deferring never lets the count
	// reach 1 here, so the wait is bounded rather than required.
	for deadline := time.Now().Add(time.Second); m.CounterValue(obs.MEventsDelivered) < 1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(b.gate)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	p.Stop()
	want := []string{"svcCreate session:s1", "svcCreate session:alice"}
	if got := b.lines(); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("trace = %q, want %q", got, want)
	}
}

func TestMonitorOptions(t *testing.T) {
	b := mwmeta.NewBuilder("mon-opt-vm", "d")
	b.BrokerLayer("brk").
		Symptom("overPressure", "pressure > 10").
		ChangePlan("overPressure",
			mwmeta.StepSpec{Op: "ventValve", Target: "valve:1"}).
		PassthroughAction("pass", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "main")
	r := &rec{}
	o := obs.New()
	p, err := Build(b.Model(), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Tracer:   o.TracerOf(),
		Metrics:  o.MetricsOf(),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pressure := 0
	stop := p.Monitor(2*time.Millisecond, func() {
		pressure += 6
		p.Broker.Context().Set("pressure", pressure)
	})
	p.Monitor(time.Hour, nil) // idempotent while running
	defer p.Stop()

	deadline := time.After(2 * time.Second)
	for len(p.Broker.Autonomic().Handled()) == 0 {
		select {
		case <-deadline:
			t.Fatal("monitor never triggered the change plan")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	stop()
	if got := strings.Join(r.lines(), ";"); !strings.Contains(got, "ventValve valve:1") {
		t.Errorf("plan steps: %s", got)
	}
	if o.MetricsOf().CounterValue(obs.MMonitorTicks) == 0 {
		t.Error("monitor ticks not counted in the platform's obs pair")
	}
	if o.TracerOf().Count(obs.SpanMonitorTick) == 0 {
		t.Error("monitor tick spans not recorded in the platform's obs pair")
	}
	// An interval <= 0 means the 1s default.
	p.Monitor(0, nil)
	if interval := monitorInterval(0); interval != time.Second {
		t.Errorf("Monitor(0, nil) runs every %v, want 1s", interval)
	}
}

func TestObsEndToEnd(t *testing.T) {
	r := &rec{}
	o := obs.New()
	p, err := Build(fullModel(t), Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": r},
		Repository: toyRepo(t),
		Tracer:     o.TracerOf(),
		Metrics:    o.MetricsOf(),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := p.UI.NewDraft()
	d.MustAdd("s1", "Session").SetRef("streams", "st1")
	d.MustAdd("st1", "Stream").SetAttr("media", "audio")
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}
	if err := p.DeliverEvent(broker.Event{Name: "streamFailed",
		Attrs: map[string]any{"stream": "st1"}}); err != nil {
		t.Fatal(err)
	}

	tr, m := p.Obs()
	for _, span := range []string{
		obs.SpanUISubmit, obs.SpanSynthSubmit, obs.SpanCtlScript,
		obs.SpanBrokerCall, obs.SpanBrokerStep, obs.SpanResourceExecute,
		obs.SpanEURun, obs.SpanBrokerEvent,
	} {
		if tr.Count(span) == 0 {
			t.Errorf("no %q spans recorded", span)
		}
	}
	for _, c := range []string{
		obs.MUISubmits, obs.MSynthesisSubmits, obs.MScriptsExecuted,
		obs.MControllerCommands, obs.MBrokerCalls, obs.MBrokerSteps,
		obs.MEUSteps,
	} {
		if m.CounterValue(c) == 0 {
			t.Errorf("counter %q is zero", c)
		}
	}
	// Cross-layer parentage: some synthesis.submit span must hang off the
	// ui.submit span recorded on the same goroutine.
	byID := map[obs.SpanID]obs.SpanRecord{}
	for _, sr := range tr.Recent() {
		byID[sr.ID] = sr
	}
	linked := false
	for _, sr := range tr.Recent() {
		if sr.Name != obs.SpanSynthSubmit {
			continue
		}
		if parent, ok := byID[sr.Parent]; ok && parent.Name == obs.SpanUISubmit {
			linked = true
		}
	}
	if !linked {
		t.Error("synthesis.submit span not parented under ui.submit")
	}
}

// pumpEventModel authors a broker-only middleware model whose event action
// echoes each event's name and sequence number into the resource trace, so
// tests can assert per-name delivery order and exact delivery counts.
func pumpEventModel(t testing.TB) *metamodel.Model {
	t.Helper()
	b := mwmeta.NewBuilder("pump-vm", "d")
	b.BrokerLayer("brk").
		EventAction("echo", "*", "", false,
			mwmeta.StepSpec{Op: "h", Target: "{event}:{seq}"}).
		Bind("*", "main")
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b.Model()
}

// keyedEvent is the pump tests' event: its name is its ordering key, the
// one the pump shards by.
func keyedEvent(key string, seq int) broker.Event {
	return broker.Event{Name: key, Attrs: map[string]any{"seq": fmt.Sprintf("%06d", seq)}}
}

// assertPumpAccounting checks the pump's lifetime invariant: every posted
// event is eventually delivered, failed, or dropped — none vanish.
func assertPumpAccounting(t *testing.T, m *obs.Metrics, accepted, rejected int64) {
	t.Helper()
	posted := m.CounterValue(obs.MEventsPosted)
	delivered := m.CounterValue(obs.MEventsDelivered)
	failures := m.CounterValue(obs.MDeliverFailures)
	deadlettered := m.CounterValue(obs.MEventsDeadLettered)
	dropped := m.CounterValue(obs.MEventsDropped)
	if posted != accepted {
		t.Errorf("posted = %d, want %d", posted, accepted)
	}
	if delivered+failures+deadlettered+dropped != accepted {
		t.Errorf("delivered(%d) + failures(%d) + deadlettered(%d) + dropped(%d) != accepted(%d)",
			delivered, failures, deadlettered, dropped, accepted)
	}
	if got := m.CounterValue(obs.MEventsRejected); got != rejected {
		t.Errorf("rejected = %d, want %d", got, rejected)
	}
}

// TestStopDrainsQueuedEvents is the regression test for the lost-event bug:
// events still queued at Stop used to vanish uncounted. The graceful drain
// must deliver (or count) every accepted event: delivered + dropped == K.
func TestStopDrainsQueuedEvents(t *testing.T) {
	const K = 64
	r := &rec{}
	m := obs.NewMetrics()
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Metrics:  m,
	}, Config{PumpQueue: K, PumpShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	for i := 0; i < K; i++ {
		if !p.PostEvent(keyedEvent(fmt.Sprintf("k%d", i%8), i)) {
			t.Fatalf("post %d rejected", i)
		}
	}
	p.Stop() // immediately: most events are still queued
	delivered := m.CounterValue(obs.MEventsDelivered)
	dropped := m.CounterValue(obs.MEventsDropped)
	if delivered+dropped != K {
		t.Errorf("delivered(%d) + dropped(%d) = %d, want %d", delivered, dropped, delivered+dropped, K)
	}
	if dropped != 0 {
		t.Errorf("fast adapter, 5s drain budget: dropped = %d, want 0", dropped)
	}
	if got := len(r.lines()); got != K {
		t.Errorf("adapter saw %d events, want %d", got, K)
	}
	assertPumpAccounting(t, m, K, 0)
}

// TestStopDrainDeadlineAbandonsAsDrops: a wedged adapter cannot hold Stop
// hostage forever — past the drain deadline the still-queued remainder is
// abandoned as counted drops, keeping the accounting invariant intact.
func TestStopDrainDeadlineAbandonsAsDrops(t *testing.T) {
	b := &blockingRec{gate: make(chan struct{}), entered: make(chan struct{})}
	m := obs.NewMetrics()
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": b},
		Metrics:  m,
	}, Config{PumpQueue: 8, PumpShards: 1, DrainTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	for i := 0; i < 3; i++ {
		if !p.PostEvent(keyedEvent("k", i)) {
			t.Fatalf("post %d rejected", i)
		}
	}
	// The worker wedges inside the adapter on the first event.
	select {
	case <-b.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("pump never reached the adapter")
	}
	stopped := make(chan struct{})
	go func() { p.Stop(); close(stopped) }()
	// Wait past the drain deadline so the queue is abandoned, then unblock
	// the in-flight delivery.
	time.Sleep(150 * time.Millisecond)
	close(b.gate)
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop never returned after the gate opened")
	}
	if got := m.CounterValue(obs.MEventsDelivered); got != 1 {
		t.Errorf("delivered = %d, want 1 (the in-flight event)", got)
	}
	if got := m.CounterValue(obs.MEventsDropped); got != 2 {
		t.Errorf("dropped = %d, want 2 (abandoned past the drain deadline)", got)
	}
	assertPumpAccounting(t, m, 3, 0)
}

// TestDeliverFailureNotCountedDelivered is the regression test for the
// double-count bug: a failed delivery used to increment both
// pump.events.delivered and pump.deliver.failures.
func TestDeliverFailureNotCountedDelivered(t *testing.T) {
	in := fault.NewInjector(1)
	in.Arm(broker.SiteEvent, fault.Spec{Kind: fault.Error, Limit: 2})
	r := &rec{}
	m := obs.NewMetrics()
	in.BindMetrics(m)
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Metrics:  m,
		Injector: in,
	}, Config{PumpShards: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	for i := 0; i < 5; i++ {
		if !p.PostEvent(keyedEvent("k", i)) {
			t.Fatalf("post %d rejected", i)
		}
	}
	p.Stop()
	delivered := m.CounterValue(obs.MEventsDelivered)
	deadlettered := m.CounterValue(obs.MEventsDeadLettered)
	if deadlettered != 2 {
		t.Fatalf("dead-lettered = %d, want 2", deadlettered)
	}
	if got := m.CounterValue(obs.MDeliverFailures); got != 0 {
		t.Errorf("deliver failures = %d, want 0 (failed deliveries park in the DLQ)", got)
	}
	if delivered != 3 {
		t.Errorf("delivered = %d, want 3 (failures must not count as delivered)", delivered)
	}
	assertPumpAccounting(t, m, 5, 0)
}

// TestPerShardMetrics: a sharded pump registers per-shard instruments whose
// sums match the aggregates, and the aggregate names keep working.
func TestPerShardMetrics(t *testing.T) {
	const shards, K = 4, 40
	r := &rec{}
	m := obs.NewMetrics()
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Metrics:  m,
	}, Config{PumpShards: shards, PumpQueue: K})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	for i := 0; i < K; i++ {
		if !p.PostEvent(keyedEvent(fmt.Sprintf("key-%d", i), i)) {
			t.Fatalf("post %d rejected", i)
		}
	}
	p.Stop()
	var perShard int64
	spread := 0
	for i := 0; i < shards; i++ {
		n := m.CounterValue(obs.ShardMetric(obs.MEventsDelivered, i))
		perShard += n
		if n > 0 {
			spread++
		}
	}
	if agg := m.CounterValue(obs.MEventsDelivered); perShard != agg {
		t.Errorf("per-shard delivered sum = %d, aggregate = %d", perShard, agg)
	}
	if spread < 2 {
		t.Errorf("40 distinct names landed on %d shard(s); want spread across >= 2", spread)
	}
	if !strings.Contains(m.Snapshot(), obs.ShardMetric(obs.MQueueDepth, 0)) {
		t.Error("per-shard depth gauge missing from the snapshot")
	}
}

// TestPerKeyOrderingAcrossShards: events sharing a name are delivered
// strictly in post order even when many names flow concurrently.
func TestPerKeyOrderingAcrossShards(t *testing.T) {
	const keys, perKey = 8, 100
	r := &rec{}
	m := obs.NewMetrics()
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Metrics:  m,
	}, Config{PumpShards: 4, PumpQueue: keys * perKey})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				if !p.PostEvent(keyedEvent(fmt.Sprintf("g%d", k), i)) {
					t.Errorf("key g%d: post %d rejected", k, i)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	p.Stop()
	assertOrderedPerKey(t, r.lines())
	assertPumpAccounting(t, m, keys*perKey, 0)
}

// assertOrderedPerKey parses "h <key>:<seq>" trace lines and requires each
// key's sequence numbers to be strictly increasing.
func assertOrderedPerKey(t *testing.T, lines []string) {
	t.Helper()
	last := map[string]string{}
	for _, line := range lines {
		rest, ok := strings.CutPrefix(line, "h ")
		if !ok {
			t.Fatalf("unexpected trace line %q", line)
		}
		key, seq, ok := strings.Cut(rest, ":")
		if !ok {
			t.Fatalf("unexpected target %q", rest)
		}
		if prev, seen := last[key]; seen && seq <= prev {
			t.Fatalf("key %s: seq %s delivered after %s (out of order)", key, seq, prev)
		}
		last[key] = seq
	}
}

// TestMonitorIdempotentIgnoresNewOptions: a second Monitor call while one
// runs leaves the running monitor's interval and probe untouched — the
// second probe never runs — and the stop it returns still controls the
// running loop.
func TestMonitorIdempotentIgnoresNewOptions(t *testing.T) {
	p, _ := buildFull(t)
	var first, second atomic.Int32
	stop := p.Monitor(time.Millisecond, func() { first.Add(1) })
	defer stop()
	stop2 := p.Monitor(time.Millisecond, func() { second.Add(1) })
	waitFor(t, "three probes of the running monitor", func() bool { return first.Load() >= 3 })
	if got := second.Load(); got != 0 {
		t.Errorf("second Monitor call's probe ran %d times, want 0", got)
	}
	// The returned stop still controls the running monitor: once it has
	// stopped the loop, a new Monitor call starts a fresh one.
	stop2()
	var third atomic.Int32
	p.Monitor(time.Millisecond, func() { third.Add(1) })
	waitFor(t, "a fresh monitor after the second call's stop", func() bool { return third.Load() > 0 })
	p.StopMonitor()
	p.StopMonitor() // idempotent after stop
}
