package broker

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/script"
)

// recorder is an adapter recording every executed command.
type recorder struct {
	trace  script.Trace
	failOn string
}

func (r *recorder) Execute(cmd script.Command) error {
	if r.failOn != "" && cmd.Op == r.failOn {
		return errors.New("resource failure")
	}
	r.trace.Record(cmd)
	return nil
}

func testBroker(t *testing.T, cfg Config) (*Broker, *recorder, *[]Event) {
	t.Helper()
	rec := &recorder{}
	rm := NewResourceManager()
	rm.Register("*", rec)
	var upward []Event
	b := New(cfg, rm, func(e Event) error { upward = append(upward, e); return nil })
	return b, rec, &upward
}

func TestResourceManagerRouting(t *testing.T) {
	rm := NewResourceManager()
	var hits []string
	rm.Register("open", AdapterFunc(func(c script.Command) error {
		hits = append(hits, "open:"+c.Target)
		return nil
	}))
	rm.Register("*", AdapterFunc(func(c script.Command) error {
		hits = append(hits, "fallback:"+c.Op)
		return nil
	}))
	if err := rm.Execute(script.NewCommand("open", "t")); err != nil {
		t.Fatal(err)
	}
	if err := rm.Execute(script.NewCommand("other", "t")); err != nil {
		t.Fatal(err)
	}
	if strings.Join(hits, ";") != "open:t;fallback:other" {
		t.Errorf("routing: %v", hits)
	}
	if got := rm.Ops(); strings.Join(got, ",") != "*,open" {
		t.Errorf("Ops: %v", got)
	}
	empty := NewResourceManager()
	if err := empty.Execute(script.NewCommand("x", "t")); err == nil {
		t.Error("no adapter must error")
	}
}

func TestStateStore(t *testing.T) {
	s := NewState()
	s.Set("a", 1)
	s.Set("b", "x")
	if v, ok := s.Get("a"); !ok || v != 1 {
		t.Error("Get")
	}
	if got := strings.Join(s.Keys(), ","); got != "a,b" {
		t.Errorf("Keys: %s", got)
	}
	snap := s.Snapshot()
	s.Set("a", 2)
	if v, _ := snap.Lookup("a"); v != 1 {
		t.Error("snapshot isolation")
	}
	s.Delete("a")
	if _, ok := s.Get("a"); ok {
		t.Error("Delete")
	}
}

func TestCallSelectsActionByOpAndGuard(t *testing.T) {
	cfg := Config{
		Name: "b",
		Actions: []*Action{
			{
				Name:  "secureOpen",
				Ops:   []string{"open"},
				Guard: expr.MustParse("secure == true"),
				Steps: []Step{{Op: "openSecure", Target: "{target}"}},
			},
			{
				Name:  "plainOpen",
				Ops:   []string{"open"},
				Steps: []Step{{Op: "openPlain", Target: "{target}", Args: map[string]string{"rate": "{rate}"}}},
			},
		},
	}
	b, rec, _ := testBroker(t, cfg)
	if err := b.Call(script.NewCommand("open", "s:1").WithArg("secure", true).WithArg("rate", 9)); err != nil {
		t.Fatal(err)
	}
	if err := b.Call(script.NewCommand("open", "s:2").WithArg("secure", false).WithArg("rate", 5)); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(rec.trace.Lines(), ";")
	want := "openSecure s:1;openPlain s:2 rate=5"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestCallNoAction(t *testing.T) {
	b, _, _ := testBroker(t, Config{Name: "b"})
	err := b.Call(script.NewCommand("mystery", "t"))
	if err == nil || !strings.Contains(err.Error(), "no action for op") {
		t.Errorf("got %v", err)
	}
}

func TestCallGuardError(t *testing.T) {
	cfg := Config{Name: "b", Actions: []*Action{{
		Name: "a", Ops: []string{"x"}, Guard: expr.MustParse("num > 'str'"),
	}}}
	b, _, _ := testBroker(t, cfg)
	b.Context().Set("num", 1)
	err := b.Call(script.NewCommand("x", "t").WithArg("str", "s"))
	if err == nil || !strings.Contains(err.Error(), "guard") {
		t.Errorf("got %v", err)
	}
}

func TestCallStepErrors(t *testing.T) {
	cfg := Config{Name: "b", Actions: []*Action{
		{Name: "bad", Ops: []string{"x"}, Steps: []Step{{Op: "op", Target: "{ghost}"}}},
		{Name: "failing", Ops: []string{"y"}, Steps: []Step{{Op: "boom", Target: "t"}}},
		{Name: "badArg", Ops: []string{"z"}, Steps: []Step{{Op: "op", Target: "t", Args: map[string]string{"a": "{ghost}"}}}},
		{Name: "badOp", Ops: []string{"w"}, Steps: []Step{{Op: "{ghost}", Target: "t"}}},
	}}
	b, rec, _ := testBroker(t, cfg)
	rec.failOn = "boom"
	if err := b.Call(script.NewCommand("x", "t")); err == nil {
		t.Error("unbound target placeholder")
	}
	if err := b.Call(script.NewCommand("y", "t")); err == nil {
		t.Error("resource failure must propagate")
	}
	if err := b.Call(script.NewCommand("z", "t")); err == nil {
		t.Error("unbound arg placeholder")
	}
	if err := b.Call(script.NewCommand("w", "t")); err == nil {
		t.Error("unbound op placeholder")
	}
}

func TestActionFnEscapeHatch(t *testing.T) {
	called := false
	cfg := Config{Name: "b", Actions: []*Action{{
		Name: "native", Ops: []string{"x"},
		Fn: func(b *Broker, cmd script.Command) error {
			called = true
			b.State().Set("last", cmd.Op)
			return nil
		},
	}}}
	b, _, _ := testBroker(t, cfg)
	if err := b.Call(script.NewCommand("x", "t")); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Error("Fn not invoked")
	}
	if v, _ := b.State().Get("last"); v != "x" {
		t.Error("state not written")
	}
}

func TestWildcardActionOp(t *testing.T) {
	cfg := Config{Name: "b", Actions: []*Action{{
		Name: "catchall", Ops: []string{"*"},
		Steps: []Step{{Op: "handled", Target: "{op}"}},
	}}}
	b, rec, _ := testBroker(t, cfg)
	if err := b.Call(script.NewCommand("anything", "t")); err != nil {
		t.Fatal(err)
	}
	if rec.trace.Lines()[0] != "handled anything" {
		t.Errorf("got %q", rec.trace.Lines()[0])
	}
}

func TestOnEventActionsAndForwarding(t *testing.T) {
	cfg := Config{
		Name: "b",
		EventActions: []*EventAction{
			{
				Name:  "recover",
				Event: "streamFailed",
				Steps: []Step{{Op: "reconfigure", Target: "stream:{stream}"}},
			},
			{
				Name:    "tell",
				Event:   "participantLeft",
				Forward: true,
				Steps:   []Step{{Op: "log", Target: "x"}},
			},
		},
	}
	b, rec, upward := testBroker(t, cfg)

	// Handled, not forwarded.
	if err := b.OnEvent(Event{Name: "streamFailed", Attrs: map[string]any{"stream": "st1"}}); err != nil {
		t.Fatal(err)
	}
	if len(*upward) != 0 {
		t.Errorf("handled event must not forward: %v", *upward)
	}
	if rec.trace.Lines()[0] != "reconfigure stream:st1" {
		t.Errorf("recovery step: %q", rec.trace.Lines()[0])
	}

	// Handled and forwarded.
	if err := b.OnEvent(Event{Name: "participantLeft"}); err != nil {
		t.Fatal(err)
	}
	if len(*upward) != 1 || (*upward)[0].Name != "participantLeft" {
		t.Errorf("forwarding: %v", *upward)
	}

	// Unmatched events forward by default.
	if err := b.OnEvent(Event{Name: "unknownThing"}); err != nil {
		t.Fatal(err)
	}
	if len(*upward) != 2 || (*upward)[1].Name != "unknownThing" {
		t.Errorf("unmatched forwarding: %v", *upward)
	}
}

func TestOnEventGuard(t *testing.T) {
	cfg := Config{Name: "b", EventActions: []*EventAction{{
		Name: "cond", Event: "tick",
		Guard: expr.MustParse("level > 5"),
		Steps: []Step{{Op: "acted", Target: "t"}},
	}}}
	b, rec, _ := testBroker(t, cfg)
	if err := b.OnEvent(Event{Name: "tick", Attrs: map[string]any{"level": 3}}); err != nil {
		t.Fatal(err)
	}
	if rec.trace.Len() != 0 {
		t.Error("guard must disable the action")
	}
	if err := b.OnEvent(Event{Name: "tick", Attrs: map[string]any{"level": 7}}); err != nil {
		t.Fatal(err)
	}
	if rec.trace.Len() != 1 {
		t.Error("guard must enable the action")
	}
	// Guard evaluation error propagates.
	if err := b.OnEvent(Event{Name: "tick", Attrs: map[string]any{"level": "oops"}}); err == nil {
		t.Error("guard type error must propagate")
	}
}

func TestReentrantEventsAreQueuedNotRecursed(t *testing.T) {
	// The adapter emits a follow-up event synchronously while the broker is
	// processing the first one; the drain loop must process both in order
	// without deadlocking.
	rm := NewResourceManager()
	var b *Broker
	order := []string{}
	rm.Register("*", AdapterFunc(func(cmd script.Command) error {
		order = append(order, "step:"+cmd.Op)
		if cmd.Op == "first" {
			if err := b.OnEvent(Event{Name: "second"}); err != nil {
				return err
			}
			order = append(order, "after-emit")
		}
		return nil
	}))
	cfg := Config{Name: "b", EventActions: []*EventAction{
		{Name: "h1", Event: "one", Steps: []Step{{Op: "first", Target: "t"}}},
		{Name: "h2", Event: "second", Steps: []Step{{Op: "secondStep", Target: "t"}}},
	}}
	b = New(cfg, rm, nil)
	if err := b.OnEvent(Event{Name: "one"}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, ";")
	// "second" is queued during "first" and processed after it completes.
	want := "step:first;after-emit;step:secondStep"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestAutonomicRisingEdge(t *testing.T) {
	cfg := Config{
		Name:     "b",
		Symptoms: []Symptom{SymptomRule("lowBattery", "charge < 20")},
		ChangePlans: []ChangePlan{{
			Symptom: "lowBattery",
			Steps:   []Step{{Op: "shedLoad", Target: "device:load1", Args: map[string]string{"kw": "1"}}},
		}},
	}
	b, rec, _ := testBroker(t, cfg)
	b.Context().Set("charge", 50)
	if err := b.OnEvent(Event{Name: "tick"}); err != nil {
		t.Fatal(err)
	}
	if len(b.Autonomic().Handled()) != 0 {
		t.Fatal("no symptom expected yet")
	}
	b.Context().Set("charge", 10)
	if err := b.OnEvent(Event{Name: "tick"}); err != nil {
		t.Fatal(err)
	}
	if err := b.OnEvent(Event{Name: "tick"}); err != nil {
		t.Fatal(err)
	}
	handled := b.Autonomic().Handled()
	if len(handled) != 1 || handled[0].Symptom != "lowBattery" {
		t.Fatalf("rising edge must fire once: %+v", handled)
	}
	if rec.trace.Lines()[0] != "shedLoad device:load1 kw=1" {
		t.Errorf("plan step: %q", rec.trace.Lines()[0])
	}
	// Re-arm: condition clears then re-fires.
	b.Context().Set("charge", 80)
	if err := b.OnEvent(Event{Name: "tick"}); err != nil {
		t.Fatal(err)
	}
	b.Context().Set("charge", 5)
	if err := b.OnEvent(Event{Name: "tick"}); err != nil {
		t.Fatal(err)
	}
	if got := len(b.Autonomic().Handled()); got != 2 {
		t.Fatalf("re-armed symptom must fire again: %d", got)
	}
}

func TestAutonomicSymptomWithoutPlanIsDetectionOnly(t *testing.T) {
	cfg := Config{Name: "b", Symptoms: []Symptom{SymptomRule("odd", "x > 0")}}
	b, rec, _ := testBroker(t, cfg)
	b.Context().Set("x", 1)
	if err := b.OnEvent(Event{Name: "tick"}); err != nil {
		t.Fatal(err)
	}
	if rec.trace.Len() != 0 {
		t.Error("no plan steps expected")
	}
}

func TestAutonomicPlanFailure(t *testing.T) {
	cfg := Config{
		Name:        "b",
		Symptoms:    []Symptom{SymptomRule("s", "x > 0")},
		ChangePlans: []ChangePlan{{Symptom: "s", Steps: []Step{{Op: "boom", Target: "t"}}}},
	}
	b, rec, _ := testBroker(t, cfg)
	rec.failOn = "boom"
	b.Context().Set("x", 1)
	err := b.OnEvent(Event{Name: "tick"})
	if err == nil || !strings.Contains(err.Error(), "autonomic plan") {
		t.Errorf("got %v", err)
	}
	if len(b.Autonomic().Handled()) != 0 {
		t.Error("failed plan must not count as handled")
	}
}

func TestUnboundSymptomIsSkipped(t *testing.T) {
	cfg := Config{Name: "b", Symptoms: []Symptom{SymptomRule("s", "neverBound > 1")}}
	b, _, _ := testBroker(t, cfg)
	if err := b.OnEvent(Event{Name: "tick"}); err != nil {
		t.Fatalf("unbound symptom must not error: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	b, _, _ := testBroker(t, Config{Name: "nb"})
	if b.Name() != "nb" {
		t.Error("Name")
	}
	if b.Resources() == nil || b.State() == nil || b.Context() == nil || b.Autonomic() == nil {
		t.Error("accessors")
	}
}

func BenchmarkBrokerCall(b *testing.B) {
	cfg := Config{Name: "b", Actions: []*Action{{
		Name: "open", Ops: []string{"open"},
		Steps: []Step{{Op: "openStream", Target: "{target}", Args: map[string]string{
			"media": "{media}", "bandwidth": "{bandwidth}",
		}}},
	}}}
	rm := NewResourceManager()
	rm.Register("*", AdapterFunc(func(script.Command) error { return nil }))
	br := New(cfg, rm, nil)
	cmd := script.NewCommand("open", "stream:s1").WithArg("media", "audio").WithArg("bandwidth", 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := br.Call(cmd); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleBroker_Call() {
	rm := NewResourceManager()
	rm.Register("*", AdapterFunc(func(cmd script.Command) error {
		fmt.Println(cmd)
		return nil
	}))
	b := New(Config{
		Name: "ncb",
		Actions: []*Action{{
			Name: "open", Ops: []string{"openStream"},
			Steps: []Step{{Op: "svcOpen", Target: "{target}", Args: map[string]string{"media": "{media}"}}},
		}},
	}, rm, nil)
	_ = b.Call(script.NewCommand("openStream", "stream:s1").WithArg("media", "audio"))
	// Output: svcOpen stream:s1 media="audio"
}

func TestNewEvent(t *testing.T) {
	cases := []struct {
		name string
		e    Event
		want Event
	}{
		{
			name: "basic",
			e:    NewEvent("objectEntered", "object", "lamp1"),
			want: Event{Name: "objectEntered", Attrs: map[string]any{"object": "lamp1"}},
		},
		{
			name: "empty string values omitted",
			e:    NewEvent("streamFailed", "session", "s1", "stream", "", "participant", ""),
			want: Event{Name: "streamFailed", Attrs: map[string]any{"session": "s1"}},
		},
		{
			name: "no attrs leaves nil map",
			e:    NewEvent("tick"),
			want: Event{Name: "tick"},
		},
		{
			name: "non-string values kept",
			e:    NewEvent("propertyChanged", "object", "o1", "value", 42),
			want: Event{Name: "propertyChanged", Attrs: map[string]any{"object": "o1", "value": 42}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !reflect.DeepEqual(c.e, c.want) {
				t.Errorf("got %+v, want %+v", c.e, c.want)
			}
		})
	}
}

func TestEventAccessors(t *testing.T) {
	e := NewEvent("propertyChanged", "object", "o1", "value", 42)
	if e.Str("object") != "o1" {
		t.Errorf("Str(object) = %q", e.Str("object"))
	}
	if e.Str("value") != "" { // not a string
		t.Errorf("Str(value) = %q, want empty", e.Str("value"))
	}
	if e.Str("missing") != "" {
		t.Errorf("Str(missing) = %q, want empty", e.Str("missing"))
	}
}

func TestNewEventPanicsOnOddList(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd kv list")
		}
	}()
	NewEvent("x", "keyOnly")
}
