package runtime

import (
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/obs"
)

// buildEcho builds the broker-only echo platform of pumpEventModel with
// its own metrics, not started.
func buildEcho(t *testing.T, cfg Config) (*Platform, *rec, *obs.Metrics) {
	t.Helper()
	r := &rec{}
	m := obs.NewMetrics()
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Metrics:  m,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, r, m
}

// hasPump reports whether the platform currently holds a pump generation.
func hasPump(p *Platform) bool {
	p.pumpMu.Lock()
	defer p.pumpMu.Unlock()
	return p.pump != nil
}

// pumpWorkers counts the live pump shard goroutines, started or not, by
// the creator every one of them names.
func pumpWorkers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:goruntime.Stack(buf, true)]), "created by github.com/mddsm/mddsm/internal/runtime.newPump")
}

// shardInstruments counts the per-shard instruments registered in m.
func shardInstruments(m *obs.Metrics) int {
	n := 0
	count := func(name string) {
		if strings.Contains(name, ".shard.") {
			n++
		}
	}
	m.Each(func(name string, _ *obs.Counter) { count(name) },
		func(name string, _ *obs.Gauge) { count(name) },
		func(name string, _ *obs.Histogram) { count(name) })
	return n
}

// TestStartedPlatformWithoutEventsHoldsNoPump: Start arms the platform but
// starts no shard; a Stop with nothing posted has nothing to drain and
// leaves every pump counter at 0.
func TestStartedPlatformWithoutEventsHoldsNoPump(t *testing.T) {
	p, _, m := buildEcho(t, Config{PumpShards: 4})
	base := pumpWorkers()
	p.Start()
	if hasPump(p) {
		t.Fatal("Start created the pump before any event")
	}
	if n := pumpWorkers(); n > base {
		t.Errorf("Start launched %d shard goroutine(s) before any event", n-base)
	}
	if n := shardInstruments(m); n != 0 {
		t.Errorf("%d per-shard instruments registered before any event", n)
	}
	begin := time.Now()
	p.Stop()
	if d := time.Since(begin); d > time.Second {
		t.Errorf("Stop of a platform never posted an event took %v", d)
	}
	for _, name := range []string{obs.MEventsPosted, obs.MEventsRejected, obs.MEventsDelivered,
		obs.MDeliverFailures, obs.MEventsDeadLettered, obs.MEventsDropped} {
		if got := m.CounterValue(name); got != 0 {
			t.Errorf("%s = %d after Start/Stop without events, want 0", name, got)
		}
	}
}

// TestFirstPostStartsPump: the first PostEvent on a started platform
// creates the shards and its event is delivered.
func TestFirstPostStartsPump(t *testing.T) {
	p, r, m := buildEcho(t, Config{PumpShards: 2})
	p.Start()
	if !p.PostEvent(keyedEvent("k", 0)) {
		t.Fatal("first post rejected")
	}
	p.pumpMu.Lock()
	shards := len(p.pump.shards)
	p.pumpMu.Unlock()
	if shards != 2 {
		t.Errorf("first post started %d shards, want 2", shards)
	}
	if pumpWorkers() < 2 {
		t.Error("first post started no shard goroutines")
	}
	if shardInstruments(m) == 0 {
		t.Error("no per-shard instruments after the first event")
	}
	waitFor(t, "first event delivery", func() bool {
		return strings.Contains(recText(r), "h k:000000")
	})
	p.Stop()
	if hasPump(p) {
		t.Error("Stop left the pump attached")
	}
	assertPumpAccounting(t, m, 1, 0)
}

// TestPostAfterStopStartsNothing: a post on a stopped platform, or on one
// never started, is a counted rejection and creates no pump.
func TestPostAfterStopStartsNothing(t *testing.T) {
	p, _, m := buildEcho(t, Config{PumpShards: 2})
	if p.PostEvent(keyedEvent("k", 0)) {
		t.Fatal("post before Start accepted")
	}
	p.Start()
	p.Stop()
	if p.PostEvent(keyedEvent("k", 1)) {
		t.Fatal("post after Stop accepted")
	}
	if hasPump(p) {
		t.Error("a rejected post created a pump")
	}
	assertPumpAccounting(t, m, 0, 2)
}

// TestStartStopStartThenPost: a platform stopped before its first event
// starts its pump on the first post after the next Start.
func TestStartStopStartThenPost(t *testing.T) {
	p, r, m := buildEcho(t, Config{PumpShards: 1})
	p.Start()
	p.Stop()
	p.Start()
	if !p.PostEvent(keyedEvent("k", 7)) {
		t.Fatal("post after Start/Stop/Start rejected")
	}
	waitFor(t, "delivery", func() bool {
		return strings.Contains(recText(r), "h k:000007")
	})
	p.Stop()
	assertPumpAccounting(t, m, 1, 0)
}
