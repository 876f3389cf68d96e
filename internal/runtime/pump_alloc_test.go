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

// buildPumpAllocPlatform is a broker-only platform with a no-op adapter and
// a metrics registry, the minimal shape of the asynchronous hot path.
func buildPumpAllocPlatform(t testing.TB, shards int) (*Platform, *obs.Counter) {
	t.Helper()
	b := mwmeta.NewBuilder("pump-alloc", "d")
	b.BrokerLayer("brk").
		EventAction("handle", "tick", "", false,
			mwmeta.StepSpec{Op: "handle", Target: "t"}).
		Bind("*", "main")
	m := obs.NewMetrics()
	ad := broker.AdapterFunc(func(cmd script.Command) error { return nil })
	p, err := Build(b.Model(), Deps{
		Adapters: map[string]broker.Adapter{"main": ad},
		Metrics:  m,
	}, Config{PumpShards: shards, ShardKey: "src", PumpQueue: 4096})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	return p, m.Counter(obs.MEventsDelivered)
}

// postPooled posts n pooled events round-robin over the pre-boxed sources
// and spins until all have been delivered.
func postPooled(p *Platform, delivered *obs.Counter, srcs []any, n int) {
	base := delivered.Value()
	for i := 0; i < n; i++ {
		ev := broker.AcquireEvent("tick")
		ev.Attrs["src"] = srcs[i%len(srcs)]
		for !p.PostEvent(ev) {
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
// the pools are warm, a steady-state post→shard→deliver round trip of
// pooled events must not allocate at all — not on the posting goroutine
// and not on the shard workers (AllocsPerRun reads process-wide mallocs).
func TestPumpHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race CI leg")
	}
	p, delivered := buildPumpAllocPlatform(t, 2)
	defer p.Stop()

	// Pre-boxed source keys: storing a string into Attrs boxes it, which
	// is the caller's one-time cost, not the pipeline's.
	srcs := make([]any, 8)
	for i, s := range []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"} {
		srcs[i] = s
	}

	// Warm up pools, maps, channels and metric instruments.
	postPooled(p, delivered, srcs, 4096)

	const perRun = 64
	allocs := testing.AllocsPerRun(50, func() {
		postPooled(p, delivered, srcs, perRun)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates: %.2f allocs per %d-event run (want 0)", allocs, perRun)
	}
}

// TestShardKeySameValueSameShardAcrossTypes pins the shardFor contract the
// fmt.Sprint fallback used to provide implicitly: a shard key carrying the
// same value routes to the same shard whatever scalar type carried it.
func TestShardKeySameValueSameShardAcrossTypes(t *testing.T) {
	pu := &pump{keyAttr: "k", shards: make([]*shard, 8)}
	for i := range pu.shards {
		pu.shards[i] = &shard{}
	}
	shardOf := func(v any) int {
		sh := pu.shardFor(broker.Event{Name: "n", Attrs: map[string]any{"k": v}})
		for i, s := range pu.shards {
			if s == sh {
				return i
			}
		}
		t.Fatalf("shardFor returned unknown shard for %v", v)
		return -1
	}
	groups := [][]any{
		{"7", int(7), int64(7), float64(7)},
		{"-3", int(-3), int64(-3), float64(-3)},
		{"0", int(0), int64(0), float64(0)},
		{"2.5", float64(2.5)},
		{"true", true},
		{"false", false},
		{"1e+30", float64(1e30)},
	}
	for _, g := range groups {
		want := shardOf(g[0])
		for _, v := range g[1:] {
			if got := shardOf(v); got != want {
				t.Errorf("key %v (%T) → shard %d, want %d (same as %v)", v, v, got, want, g[0])
			}
		}
	}
	// Distinct values must be able to land on distinct shards (not all
	// collapsing onto one).
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[shardOf(int64(i))] = true
	}
	if len(seen) < 2 {
		t.Errorf("64 distinct int keys all hashed to one shard")
	}
}

// TestPumpAggregateDepthCounter checks the atomic aggregate depth: it rises
// with accepted posts, returns to zero once the queue drains, and the
// platform gauge mirrors it without rescanning shards.
func TestPumpAggregateDepthCounter(t *testing.T) {
	p, delivered := buildPumpAllocPlatform(t, 4)
	defer p.Stop()
	srcs := []any{"a", "b", "c", "d"}
	postPooled(p, delivered, srcs, 1000)

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
