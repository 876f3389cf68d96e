package controller

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/eu"
	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/policy"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/simtime"
)

// fakeBroker records calls made by the Controller.
type fakeBroker struct {
	trace  script.Trace
	failOn string
}

func (b *fakeBroker) Call(cmd script.Command) error {
	if b.failOn != "" && cmd.Op == b.failOn {
		return errors.New("broker failure")
	}
	b.trace.Record(cmd)
	return nil
}

// repo builds a minimal repository: goal op.play has two providers.
func repo(t testing.TB) *registry.Repository {
	t.Helper()
	tx := dsc.NewTaxonomy()
	for _, id := range []string{"op.play", "op.decode"} {
		tx.MustAdd(&dsc.DSC{ID: id, Domain: "d", Category: dsc.Operation})
	}
	r := registry.NewRepository(tx)
	r.MustAdd(&registry.Procedure{
		ID: "playCheap", ClassifiedBy: "op.play", Cost: 2, Reliability: 0.9,
		Dependencies: []string{"op.decode"},
		Unit: eu.NewUnit("playCheap",
			eu.Call("op.decode"),
			eu.Invoke("playStream", "{target}", "quality", "'low'"),
		),
	})
	r.MustAdd(&registry.Procedure{
		ID: "playSolid", ClassifiedBy: "op.play", Cost: 30, Reliability: 0.999,
		Dependencies: []string{"op.decode"},
		Unit: eu.NewUnit("playSolid",
			eu.Call("op.decode"),
			eu.Invoke("playStream", "{target}", "quality", "'high'"),
		),
	})
	r.MustAdd(&registry.Procedure{
		ID: "decode", ClassifiedBy: "op.decode", Cost: 1, Reliability: 0.99,
		Unit: eu.NewUnit("decode", eu.Invoke("decodeInit", "{target}")),
	})
	return r
}

func newController(t testing.TB, cfg Config, b BrokerAPI) (*Controller, *[]broker.Event) {
	t.Helper()
	var upward []broker.Event
	c := New(cfg, b, func(e broker.Event) error { upward = append(upward, e); return nil })
	return c, &upward
}

func TestCase1PredefinedAction(t *testing.T) {
	fb := &fakeBroker{}
	cfg := Config{
		Name: "c",
		Actions: []*Action{{
			Name: "setMedia", Ops: []string{"setMedia"},
			Steps: []script.Template{
				{Op: "reconfigure", Target: "{target}", Args: map[string]string{"media": "{media}"}},
			},
		}},
	}
	c, _ := newController(t, cfg, fb)
	cmd := script.NewCommand("setMedia", "stream:s1").WithArg("media", "video")
	if err := c.Process(cmd); err != nil {
		t.Fatal(err)
	}
	if got := fb.trace.Lines()[0]; got != `reconfigure stream:s1 media="video"` {
		t.Errorf("got %q", got)
	}
	s := c.Stats()
	if s.Case1 != 1 || s.Case2 != 0 || s.Commands != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestCase2IntentGeneration(t *testing.T) {
	fb := &fakeBroker{}
	cfg := Config{
		Name:       "c",
		Classes:    []CommandClass{{Op: "play", GoalDSC: "op.play"}},
		Repository: repo(t),
	}
	c, _ := newController(t, cfg, fb)
	if err := c.Process(script.NewCommand("play", "stream:s1")); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(fb.trace.Lines(), ";")
	want := `decodeInit stream:s1;playStream stream:s1 quality="low"`
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
	s := c.Stats()
	if s.Case2 != 1 || s.Generated != 1 {
		t.Errorf("stats: %+v", s)
	}
	// Second run hits the cache.
	if err := c.Process(script.NewCommand("play", "stream:s2")); err != nil {
		t.Fatal(err)
	}
	s = c.Stats()
	if s.Generated != 1 || s.CacheHits != 1 {
		t.Errorf("cache stats: %+v", s)
	}
}

func TestClassificationPolicyForcesIntent(t *testing.T) {
	fb := &fakeBroker{}
	cfg := Config{
		Name: "c",
		Actions: []*Action{{
			Name: "playAction", Ops: []string{"play"},
			Steps: []script.Template{{Op: "predefPlay", Target: "{target}"}},
		}},
		Classes:    []CommandClass{{Op: "play", GoalDSC: "op.play"}},
		Repository: repo(t),
		Policies: []policy.Policy{
			policy.Rule("memory", 10, "memoryLow", policy.Effect{Key: "case", Value: "intent"}),
		},
	}
	c, _ := newController(t, cfg, fb)

	// Default: predefined action wins.
	if err := c.Process(script.NewCommand("play", "stream:s1")); err != nil {
		t.Fatal(err)
	}
	if fb.trace.Lines()[0] != "predefPlay stream:s1" {
		t.Errorf("default case: %q", fb.trace.Lines()[0])
	}

	// With memoryLow the policy forces Case 2 (paper §VI: reduced memory
	// footprint prefers dynamic IM generation over stored actions).
	c.Context().Set("memoryLow", true)
	if err := c.Process(script.NewCommand("play", "stream:s2")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fb.trace.Lines()[len(fb.trace.Lines())-1], "playStream") {
		t.Errorf("forced intent: %v", fb.trace.Lines())
	}
	s := c.Stats()
	if s.Case1 != 1 || s.Case2 != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestIntentSelectionPolicies(t *testing.T) {
	fb := &fakeBroker{}
	cfg := Config{
		Name:       "c",
		Classes:    []CommandClass{{Op: "play", GoalDSC: "op.play"}},
		Repository: repo(t),
		Policies: []policy.Policy{
			policy.Rule("critical", 5, "critical", policy.Effect{Key: "optimize", Value: "reliability"}),
		},
	}
	c, _ := newController(t, cfg, fb)
	c.Context().Set("critical", true)
	if err := c.Process(script.NewCommand("play", "stream:s1")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(fb.trace.Lines(), ";"), `quality="high"`) {
		t.Errorf("reliability selection: %v", fb.trace.Lines())
	}
}

func TestExecuteScriptAborts(t *testing.T) {
	fb := &fakeBroker{failOn: "boom"}
	cfg := Config{Name: "c", Actions: []*Action{
		{Name: "ok", Ops: []string{"ok"}, Steps: []script.Template{{Op: "fine", Target: "t"}}},
		{Name: "bad", Ops: []string{"bad"}, Steps: []script.Template{{Op: "boom", Target: "t"}}},
	}}
	c, _ := newController(t, cfg, fb)
	s := script.New("s").Append(
		script.NewCommand("ok", "t"),
		script.NewCommand("bad", "t"),
		script.NewCommand("ok", "t"),
	)
	err := c.Execute(s)
	if err == nil || !strings.Contains(err.Error(), "command 1") {
		t.Fatalf("got %v", err)
	}
	if fb.trace.Len() != 1 {
		t.Errorf("script must abort at the failure: %v", fb.trace.Lines())
	}
}

func TestProcessErrors(t *testing.T) {
	fb := &fakeBroker{}
	t.Run("unroutable op", func(t *testing.T) {
		c, _ := newController(t, Config{Name: "c"}, fb)
		err := c.Process(script.NewCommand("mystery", "t"))
		if err == nil || !strings.Contains(err.Error(), "no predefined action and no command class") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("classified action but none matches", func(t *testing.T) {
		cfg := Config{Name: "c", Policies: []policy.Policy{
			policy.Rule("force", 1, "true", policy.Effect{Key: "case", Value: "action"}),
		}}
		c, _ := newController(t, cfg, fb)
		err := c.Process(script.NewCommand("x", "t"))
		if err == nil || !strings.Contains(err.Error(), "no action handles") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("classified intent without repository", func(t *testing.T) {
		cfg := Config{Name: "c", Policies: []policy.Policy{
			policy.Rule("force", 1, "true", policy.Effect{Key: "case", Value: "intent"}),
		}}
		c, _ := newController(t, cfg, fb)
		err := c.Process(script.NewCommand("x", "t"))
		if err == nil || !strings.Contains(err.Error(), "no procedure repository") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("intent without command class", func(t *testing.T) {
		cfg := Config{Name: "c", Repository: repo(t), Policies: []policy.Policy{
			policy.Rule("force", 1, "true", policy.Effect{Key: "case", Value: "intent"}),
		}}
		c, _ := newController(t, cfg, fb)
		err := c.Process(script.NewCommand("x", "t"))
		if err == nil || !strings.Contains(err.Error(), "no command class") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("unknown case", func(t *testing.T) {
		cfg := Config{Name: "c", Policies: []policy.Policy{
			policy.Rule("weird", 1, "true", policy.Effect{Key: "case", Value: "zzz"}),
		}}
		c, _ := newController(t, cfg, fb)
		err := c.Process(script.NewCommand("x", "t"))
		if err == nil || !strings.Contains(err.Error(), "unknown case") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("classification error", func(t *testing.T) {
		cfg := Config{Name: "c", Policies: []policy.Policy{
			policy.Rule("bad", 1, "n > 'x'"),
		}}
		c, _ := newController(t, cfg, fb)
		c.Context().Set("n", 1)
		err := c.Process(script.NewCommand("x", "t").WithArg("x", "s"))
		if err == nil || !strings.Contains(err.Error(), "classification") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("guard error", func(t *testing.T) {
		cfg := Config{Name: "c", Actions: []*Action{{
			Name: "a", Ops: []string{"x"}, Guard: expr.MustParse("1 > 'a'"),
		}}}
		c, _ := newController(t, cfg, fb)
		err := c.Process(script.NewCommand("x", "t"))
		if err == nil || !strings.Contains(err.Error(), "guard") {
			t.Errorf("got %v", err)
		}
	})
	t.Run("step error", func(t *testing.T) {
		cfg := Config{Name: "c", Actions: []*Action{{
			Name: "a", Ops: []string{"x"},
			Steps: []script.Template{{Op: "op", Target: "{ghost}"}},
		}}}
		c, _ := newController(t, cfg, fb)
		if err := c.Process(script.NewCommand("x", "t")); err == nil {
			t.Error("unbound placeholder must fail")
		}
	})
}

func TestGuardedActionFallsThroughToSecond(t *testing.T) {
	fb := &fakeBroker{}
	cfg := Config{Name: "c", Actions: []*Action{
		{
			Name: "videoPath", Ops: []string{"open"},
			Guard: expr.MustParse("media == 'video'"),
			Steps: []script.Template{{Op: "openVideo", Target: "{target}"}},
		},
		{
			Name:  "anyPath",
			Ops:   []string{"open"},
			Steps: []script.Template{{Op: "openAny", Target: "{target}"}},
		},
	}}
	c, _ := newController(t, cfg, fb)
	if err := c.Process(script.NewCommand("open", "s:1").WithArg("media", "audio")); err != nil {
		t.Fatal(err)
	}
	if fb.trace.Lines()[0] != "openAny s:1" {
		t.Errorf("fallthrough: %q", fb.trace.Lines()[0])
	}
}

func TestEventHandlerStepsAndForwarding(t *testing.T) {
	fb := &fakeBroker{}
	cfg := Config{Name: "c", EventActions: []*EventAction{
		{
			Name: "onFail", Event: "streamFailed",
			Steps: []script.Template{{Op: "recover", Target: "stream:{stream}"}},
		},
		{Name: "onLeft", Event: "participantLeft", Forward: true},
	}}
	c, upward := newController(t, cfg, fb)
	if err := c.OnEvent(broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "s1"}}); err != nil {
		t.Fatal(err)
	}
	if fb.trace.Lines()[0] != "recover stream:s1" {
		t.Errorf("event step: %q", fb.trace.Lines()[0])
	}
	if len(*upward) != 0 {
		t.Error("handled event must not forward")
	}
	if err := c.OnEvent(broker.Event{Name: "participantLeft"}); err != nil {
		t.Fatal(err)
	}
	if err := c.OnEvent(broker.Event{Name: "unmatched"}); err != nil {
		t.Fatal(err)
	}
	if len(*upward) != 2 {
		t.Errorf("forwarding: %v", *upward)
	}
	if c.Stats().Events != 3 {
		t.Errorf("event count: %+v", c.Stats())
	}
}

func TestInstalledScriptTriggeredByEvent(t *testing.T) {
	// The 2SVM pattern: a script installed at the layer executes when an
	// asynchronous event arrives, going through command classification.
	fb := &fakeBroker{}
	installed := script.New("welcome").Append(
		script.NewCommand("greet", "object:{?}"), // static target; args resolved at install time
	)
	cfg := Config{
		Name: "c",
		Actions: []*Action{{
			Name: "greet", Ops: []string{"greet"},
			Steps: []script.Template{{Op: "say", Target: "hello"}},
		}},
		EventActions: []*EventAction{{
			Name: "onEnter", Event: "objectEntered", Script: installed,
		}},
	}
	c, _ := newController(t, cfg, fb)
	if err := c.OnEvent(broker.Event{Name: "objectEntered", Attrs: map[string]any{"object": "lamp1"}}); err != nil {
		t.Fatal(err)
	}
	if fb.trace.Lines()[0] != "say hello" {
		t.Errorf("installed script: %v", fb.trace.Lines())
	}
}

func TestEventGuardError(t *testing.T) {
	fb := &fakeBroker{}
	cfg := Config{Name: "c", EventActions: []*EventAction{{
		Name: "g", Event: "e", Guard: expr.MustParse("1 > 'x'"),
	}}}
	c, _ := newController(t, cfg, fb)
	if err := c.OnEvent(broker.Event{Name: "e"}); err == nil {
		t.Error("guard error must propagate")
	}
}

func TestEventStepFailureReported(t *testing.T) {
	fb := &fakeBroker{failOn: "boom"}
	cfg := Config{Name: "c", EventActions: []*EventAction{{
		Name: "f", Event: "e", Steps: []script.Template{{Op: "boom", Target: "t"}},
	}}}
	c, _ := newController(t, cfg, fb)
	if err := c.OnEvent(broker.Event{Name: "e"}); err == nil {
		t.Error("step failure must be reported")
	}
}

func TestEUEmittedEventReachesHandler(t *testing.T) {
	fb := &fakeBroker{}
	tx := dsc.NewTaxonomy()
	tx.MustAdd(&dsc.DSC{ID: "op.x", Domain: "d", Category: dsc.Operation})
	r := registry.NewRepository(tx)
	r.MustAdd(&registry.Procedure{
		ID: "x", ClassifiedBy: "op.x", Cost: 1,
		Unit: eu.NewUnit("x", eu.Emit("progress", "pct", "50")),
	})
	cfg := Config{
		Name:       "c",
		Classes:    []CommandClass{{Op: "go", GoalDSC: "op.x"}},
		Repository: r,
		EventActions: []*EventAction{{
			Name: "onProgress", Event: "progress",
			Steps: []script.Template{{Op: "noteProgress", Target: "t", Args: map[string]string{"pct": "{pct}"}}},
		}},
	}
	c, _ := newController(t, cfg, fb)
	if err := c.Process(script.NewCommand("go", "t")); err != nil {
		t.Fatal(err)
	}
	if got := fb.trace.Lines()[0]; got != "noteProgress t pct=50" {
		t.Errorf("EU event: %q", got)
	}
}

func TestVirtualTimeCharging(t *testing.T) {
	fb := &fakeBroker{}
	clock := simtime.NewVirtual()
	start := clock.Now()
	cfg := Config{
		Name:       "c",
		Classes:    []CommandClass{{Op: "play", GoalDSC: "op.play"}},
		Repository: repo(t),
		Clock:      clock,
	}
	c, _ := newController(t, cfg, fb)
	if err := c.Process(script.NewCommand("play", "s:1")); err != nil {
		t.Fatal(err)
	}
	// Costs: playCheap 2 + decode 1 = 3 virtual ms.
	if got := clock.Since(start); got != 3*time.Millisecond {
		t.Errorf("virtual time: %v", got)
	}
}

func TestInvalidateIntentCache(t *testing.T) {
	fb := &fakeBroker{}
	r := repo(t)
	cfg := Config{Name: "c", Classes: []CommandClass{{Op: "play", GoalDSC: "op.play"}}, Repository: r}
	c, _ := newController(t, cfg, fb)
	if err := c.Process(script.NewCommand("play", "s:1")); err != nil {
		t.Fatal(err)
	}
	c.InvalidateIntentCache()
	if err := c.Process(script.NewCommand("play", "s:1")); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Generated; got != 2 {
		t.Errorf("generations after invalidate: %d", got)
	}
	// No-repository controller tolerates invalidation.
	c2, _ := newController(t, Config{Name: "c2"}, fb)
	c2.InvalidateIntentCache()
}

func TestName(t *testing.T) {
	c, _ := newController(t, Config{Name: "ucm"}, &fakeBroker{})
	if c.Name() != "ucm" {
		t.Error("Name")
	}
}

func BenchmarkCase1Action(b *testing.B) {
	fb := &fakeBroker{}
	cfg := Config{Name: "c", Actions: []*Action{{
		Name: "a", Ops: []string{"x"},
		Steps: []script.Template{{Op: "op", Target: "{target}"}},
	}}}
	c := New(cfg, fb, nil)
	cmd := script.NewCommand("x", "t:1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Process(cmd); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCase2IntentWarm(b *testing.B) {
	fb := &fakeBroker{}
	cfg := Config{Name: "c", Classes: []CommandClass{{Op: "play", GoalDSC: "op.play"}}, Repository: repo(b)}
	c := New(cfg, fb, nil)
	cmd := script.NewCommand("play", "s:1")
	if err := c.Process(cmd); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Process(cmd); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPolicySelectsNamedAction(t *testing.T) {
	fb := &fakeBroker{}
	cfg := Config{Name: "c",
		Actions: []*Action{
			{Name: "economy", Ops: []string{"open"},
				Steps: []script.Template{{Op: "openLow", Target: "{target}"}}},
			{Name: "premium", Ops: []string{"open"},
				Steps: []script.Template{{Op: "openHigh", Target: "{target}"}}},
		},
		Policies: []policy.Policy{
			policy.Rule("vip", 10, "tier == 'gold'", policy.Effect{Key: "action", Value: "premium"}),
		},
	}
	c, _ := newController(t, cfg, fb)
	// Default: declaration order picks economy.
	if err := c.Process(script.NewCommand("open", "s:1")); err != nil {
		t.Fatal(err)
	}
	if fb.trace.Lines()[0] != "openLow s:1" {
		t.Errorf("default: %q", fb.trace.Lines()[0])
	}
	// Gold tier: the policy names the premium action.
	c.Context().Set("tier", "gold")
	if err := c.Process(script.NewCommand("open", "s:2")); err != nil {
		t.Fatal(err)
	}
	if fb.trace.Lines()[1] != "openHigh s:2" {
		t.Errorf("policy-selected: %q", fb.trace.Lines()[1])
	}
}

func TestPolicyDeniesCommand(t *testing.T) {
	fb := &fakeBroker{}
	o := obs.New()
	cfg := Config{Name: "c",
		Actions: []*Action{{Name: "openAction", Ops: []string{"open"},
			Steps: []script.Template{{Op: "svcOpen", Target: "{target}"}}}},
		Policies: []policy.Policy{
			policy.Rule("lockdown", 10, "locked", policy.Effect{Key: "deny", Value: true}),
		},
		Tracer:  o.TracerOf(),
		Metrics: o.MetricsOf(),
	}
	c, _ := newController(t, cfg, fb)
	// Unlocked: the command runs.
	if err := c.Process(script.NewCommand("open", "s:1")); err != nil {
		t.Fatal(err)
	}
	// Locked: the policy denies, the adapter stays untouched, the denial
	// is counted in both the stats and the obs metrics.
	c.Context().Set("locked", true)
	err := c.Process(script.NewCommand("open", "s:2"))
	if err == nil || !strings.Contains(err.Error(), "denied by policy") {
		t.Fatalf("err = %v, want policy denial", err)
	}
	if n := len(fb.trace.Lines()); n != 1 {
		t.Errorf("adapter saw %d commands, want 1", n)
	}
	if got := c.Stats().Denied; got != 1 {
		t.Errorf("Stats.Denied = %d, want 1", got)
	}
	if got := o.MetricsOf().CounterValue(obs.MPolicyDenials); got != 1 {
		t.Errorf("denials counter = %d, want 1", got)
	}
}

func TestPolicySelectedActionErrors(t *testing.T) {
	fb := &fakeBroker{}
	cfg := Config{Name: "c",
		Actions: []*Action{
			{Name: "other", Ops: []string{"different"},
				Steps: []script.Template{{Op: "x", Target: "t"}}},
		},
		Policies: []policy.Policy{
			policy.Rule("ghostly", 10, "pickGhost", policy.Effect{Key: "action", Value: "ghost"}),
			policy.Rule("wrongOp", 5, "pickOther", policy.Effect{Key: "action", Value: "other"}),
		},
	}
	c, _ := newController(t, cfg, fb)
	c.Context().Set("pickGhost", true)
	c.Context().Set("pickOther", false)
	if err := c.Process(script.NewCommand("open", "t")); err == nil ||
		!strings.Contains(err.Error(), "unknown action") {
		t.Errorf("got %v", err)
	}
	c.Context().Set("pickGhost", false)
	c.Context().Set("pickOther", true)
	if err := c.Process(script.NewCommand("open", "t")); err == nil ||
		!strings.Contains(err.Error(), "does not handle") {
		t.Errorf("got %v", err)
	}
}
