package runtime

import (
	goruntime "runtime"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

// buildPumpAllocPlatform is a broker-only platform with a no-op adapter, a
// "*" event action and a metrics registry, the minimal shape of the
// asynchronous hot path.
func buildPumpAllocPlatform(t testing.TB, shards int) (*Platform, *obs.Metrics) {
	t.Helper()
	b := mwmeta.NewBuilder("pump-alloc", "d")
	b.BrokerLayer("brk").
		EventAction("handle", "*", "", false,
			mwmeta.StepSpec{Op: "handle", Target: "t"}).
		Bind("*", "main")
	m := obs.NewMetrics()
	ad := broker.AdapterFunc(func(cmd script.Command) error { return nil })
	p, err := Build(b.Model(), Deps{
		Adapters: map[string]broker.Adapter{"main": ad},
		Metrics:  m,
	}, Config{PumpShards: shards, PumpQueue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	return p, m
}

// postNamed posts n plain events without attributes round-robin over the
// given names and spins until all have been delivered.
func postNamed(p *Platform, delivered *obs.Counter, names []string, n int) {
	base := delivered.Value()
	for i := 0; i < n; i++ {
		for !p.PostEvent(broker.Event{Name: names[i%len(names)]}) {
			goruntime.Gosched()
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Value() < base+int64(n) {
		if time.Now().After(deadline) {
			panic("pump did not drain in time")
		}
		goruntime.Gosched()
	}
}

// TestPumpHotPathAllocFree is the allocation gate of ROADMAP item 3: once
// the scope pool, the interned names and the instruments are warm, a
// steady-state post→shard→deliver round trip of plain events must not
// allocate at all — not on the posting goroutine and not on the shard
// workers (AllocsPerRun reads process-wide mallocs).
func TestPumpHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race CI leg")
	}
	const shards = 2
	p, m := buildPumpAllocPlatform(t, shards)
	defer p.Stop()
	delivered := m.Counter(obs.MEventsDelivered)
	names := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"}

	// Warm up pools, maps, channels and metric instruments.
	postNamed(p, delivered, names, 4096)
	for i := 0; i < shards; i++ {
		if m.CounterValue(obs.ShardMetric(obs.MEventsDelivered, i)) == 0 {
			t.Fatalf("shard %d delivered nothing; the gate must cover every shard", i)
		}
	}

	const perRun = 64
	allocs := testing.AllocsPerRun(50, func() {
		postNamed(p, delivered, names, perRun)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates: %.2f allocs per %d-event run (want 0)", allocs, perRun)
	}
}

// TestPumpAggregateDepthCounter checks the atomic aggregate depth: it rises
// with accepted posts, returns to zero once the queue drains, and the
// platform gauge mirrors it without rescanning shards.
func TestPumpAggregateDepthCounter(t *testing.T) {
	p, m := buildPumpAllocPlatform(t, 4)
	defer p.Stop()
	postNamed(p, m.Counter(obs.MEventsDelivered), []string{"a", "b", "c", "d"}, 1000)

	p.pumpMu.Lock()
	pu := p.pump
	p.pumpMu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for pu.depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("aggregate depth did not return to 0: %d", pu.depth())
		}
		goruntime.Gosched()
	}
}
