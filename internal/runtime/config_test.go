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
	if d.DrainTimeout != 5*time.Second || d.MonitorInterval != time.Second {
		t.Errorf("duration defaults: %+v", d)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Defaults() must validate: %v", err)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero Config must validate: %v", err)
	}
	// The zero config resolves to exactly the documented defaults.
	if got := (Config{}).withDefaults(); !configEq(got, d) {
		t.Errorf("zero config resolved to %+v, want %+v", got, d)
	}
}

// configEq compares two Configs field by field (Config is not comparable:
// ExternalEvents is a func).
func configEq(a, b Config) bool {
	return a.PumpQueue == b.PumpQueue &&
		a.PumpShards == b.PumpShards &&
		a.ShardKey == b.ShardKey &&
		a.DrainTimeout == b.DrainTimeout &&
		a.DLQCapacity == b.DLQCapacity &&
		a.Supervisor == b.Supervisor &&
		a.DeltaValidation == b.DeltaValidation &&
		a.MonitorInterval == b.MonitorInterval
}

func TestConfigValidateRejects(t *testing.T) {
	bad := []Config{
		{PumpQueue: -1},
		{PumpShards: -2},
		{DrainTimeout: -time.Second},
		{DLQCapacity: -2},
		{MonitorInterval: -time.Minute},
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
		WithConfig(Config{PumpQueue: -5})); err == nil {
		t.Fatal("Build accepted an invalid config")
	}
}

// TestConfigMatchesOptions proves every option-built platform is
// reproducible through Config alone — the acceptance bar for the unified
// API — by comparing the resolved Config of both constructions.
func TestConfigMatchesOptions(t *testing.T) {
	sup := SupervisorConfig{DegradeAfter: 7}
	deps := Deps{Adapters: map[string]broker.Adapter{"main": &rec{}}}

	viaOpts, err := Build(brokerOnlyModel("cfg-opts"), deps,
		WithPumpQueue(17), WithPumpShards(3), WithShardKey("room"),
		WithDrainTimeout(250*time.Millisecond), WithDLQCapacity(9),
		WithSupervisor(sup), WithDeltaValidation(true))
	if err != nil {
		t.Fatal(err)
	}
	viaCfg, err := Build(brokerOnlyModel("cfg-struct"), deps, WithConfig(Config{
		PumpQueue:       17,
		PumpShards:      3,
		ShardKey:        "room",
		DrainTimeout:    250 * time.Millisecond,
		DLQCapacity:     9,
		Supervisor:      sup,
		DeltaValidation: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := viaOpts.Config(), viaCfg.Config(); !configEq(a, b) {
		t.Errorf("option-built config %+v != struct-built config %+v", a, b)
	}
	if got := viaCfg.Config().MonitorInterval; got != time.Second {
		t.Errorf("unset MonitorInterval resolved to %v, want 1s", got)
	}
}

// TestConfigDLQDisabled pins the sentinel mapping: WithDLQCapacity(0) and
// DLQCapacity: DLQDisabled both produce a platform with no dead-lettering.
func TestConfigDLQDisabled(t *testing.T) {
	deps := Deps{Adapters: map[string]broker.Adapter{"main": &rec{}}}
	for name, opt := range map[string]Option{
		"option": WithDLQCapacity(0),
		"config": WithConfig(Config{DLQCapacity: DLQDisabled}),
		"override": func() Option { // option after WithConfig wins
			return func(p *Platform) {
				WithConfig(Config{DLQCapacity: 99})(p)
				WithDLQCapacity(0)(p)
			}
		}(),
	} {
		p, err := Build(brokerOnlyModel("dlq-"+name), deps, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := p.Config().DLQCapacity; got != DLQDisabled {
			t.Errorf("%s: DLQCapacity = %d, want DLQDisabled", name, got)
		}
		if p.dlq.cap != 0 {
			t.Errorf("%s: dlq capacity = %d, want 0", name, p.dlq.cap)
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
		WithConfig(Config{PumpQueue: 1, PumpShards: 1}))
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
