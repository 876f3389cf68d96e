package runtime

import (
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

// brokerOnlyModel builds the smallest valid middleware model: one
// passthrough Broker layer bound to the "main" adapter.
func brokerOnlyModel(name string) *metamodel.Model {
	b := mwmeta.NewBuilder(name, "test")
	b.BrokerLayer("brk").
		PassthroughAction("pass", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "main")
	return b.Model()
}

func TestConfigDefaults(t *testing.T) {
	d := Defaults()
	if d.PumpQueue != 256 || d.DLQCapacity != 256 {
		t.Errorf("capacity defaults: %+v", d)
	}
	if d.DrainTimeout != 5*time.Second {
		t.Errorf("duration defaults: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Defaults() must validate: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero Config must validate: %v", err)
	}
	// The zero config resolves to exactly the documented defaults.
	if got := (Config{}).withDefaults(); got != d {
		t.Errorf("zero config resolved to %+v, want %+v", got, d)
	}
	// A platform keeps the Config it was built with, defaults applied.
	deps := Deps{Adapters: map[string]broker.Adapter{"main": &rec{}}}
	set := Config{
		PumpQueue:       17,
		PumpShards:      3,
		DrainTimeout:    250 * time.Millisecond,
		DLQCapacity:     9,
		DeltaValidation: true,
	}
	for _, cfg := range []Config{{}, set} {
		p, err := Build(brokerOnlyModel("cfg-kept"), deps, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.Config(), cfg.withDefaults(); got != want {
			t.Errorf("Build(%+v).Config() = %+v, want %+v", cfg, got, want)
		}
	}
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{PumpQueue: -1},
		{PumpShards: -2},
		{DrainTimeout: -time.Second},
		{DLQCapacity: -2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated", i, cfg)
		}
	}
	if err := (Config{DLQCapacity: DLQDisabled}).Validate(); err != nil {
		t.Errorf("DLQDisabled sentinel must validate: %v", err)
	}
	// An invalid config fails Build instead of being clamped.
	if _, err := Build(brokerOnlyModel("cfg-invalid"), Deps{Adapters: map[string]broker.Adapter{"main": &rec{}}},
		Config{PumpQueue: -5}); err == nil {
		t.Fatal("Build accepted an invalid config")
	}
}

// TestConfigDLQDisabled pins the DLQCapacity mapping: DLQDisabled builds a
// platform with no dead-lettering, while 0 — the zero value — means the
// default capacity of 256.
func TestConfigDLQDisabled(t *testing.T) {
	deps := Deps{Adapters: map[string]broker.Adapter{"main": &rec{}}}
	for _, c := range []struct {
		name          string
		in, resolved  int
		queueCapacity int
	}{
		{"disabled", DLQDisabled, DLQDisabled, 0},
		{"zero-is-default", 0, 256, 256},
	} {
		p, err := Build(brokerOnlyModel("dlq-"+c.name), deps, Config{DLQCapacity: c.in})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.Config().DLQCapacity; got != c.resolved {
			t.Errorf("%s: DLQCapacity = %d, want %d", c.name, got, c.resolved)
		}
		if p.dlq.cap != c.queueCapacity {
			t.Errorf("%s: dlq capacity = %d, want %d", c.name, p.dlq.cap, c.queueCapacity)
		}
	}
}

// TestConfigPumpQuota exercises a Config-built pump bound: a 1-shard,
// 1-slot queue with a blocked adapter rejects overflow posts as exactly
// counted rejections — the per-tenant quota mechanism mddsm-serve leans on.
func TestConfigPumpQuota(t *testing.T) {
	release := make(chan struct{})
	blocked := adapterFunc(func() { <-release })
	m := obs.NewMetrics()
	b := mwmeta.NewBuilder("cfg-quota", "test")
	b.BrokerLayer("brk").
		EventAction("onTick", "tick", "", false,
			mwmeta.StepSpec{Op: "hold", Target: "t"}).
		Bind("*", "main")
	p, err := Build(b.Model(),
		Deps{Adapters: map[string]broker.Adapter{"main": blocked}, Metrics: m},
		Config{PumpQueue: 1, PumpShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer func() { close(release); p.Stop() }()

	ev := broker.Event{Name: "tick"}
	// First post is dequeued by the (now blocked) worker, second fills the
	// 1-slot queue; wait for the queue to empty into the worker so the
	// bound is deterministic.
	if !p.PostEvent(ev) {
		t.Fatal("first post rejected")
	}
	waitFor(t, "worker pickup", func() bool {
		return m.Counter(obs.MQueueDepth).Value() >= 0 && p.pump.depth() == 0
	})
	if !p.PostEvent(ev) {
		t.Fatal("second post rejected")
	}
	rejected := 0
	for i := 0; i < 5; i++ {
		if !p.PostEvent(ev) {
			rejected++
		}
	}
	if rejected != 5 {
		t.Errorf("rejected %d of 5 overflow posts, want all", rejected)
	}
	if got := m.Counter(obs.MEventsRejected).Value(); got != 5 {
		t.Errorf("pump.events.rejected = %d, want 5", got)
	}
}

// adapterFunc adapts a func to broker.Adapter for test doubles.
type adapterFunc func()

func (f adapterFunc) Execute(_ script.Command) error { f(); return nil }
