package mddsm_test

// Repository-level benchmarks: one per evaluation result of the paper's
// §VII (E2, E3, E4) plus the ablations called out in DESIGN.md §4. The
// text reports for every experiment (including the non-timing ones E1, E5
// and E6) are printed by cmd/mddsm-bench.

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/baseline"
	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/controller"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/domains/mgrid"
	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/eu"
	"github.com/mddsm/mddsm/internal/experiments"
	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/intent"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/policy"
	"github.com/mddsm/mddsm/internal/registry"
	mdruntime "github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

// BenchmarkE2 times the 8-scenario suite on both Broker implementations
// (paper §VII-A: the model-based version averaged ~17% more time).
func BenchmarkE2(b *testing.B) {
	// Every scenario tears its sessions down at the end, so one
	// broker+service pair serves all iterations: construction stays
	// outside the timed loop on both sides, and the service trace is
	// reset each round so its growth cannot skew long runs.
	for _, sc := range cml.Scenarios() {
		b.Run("model-based/"+sc.Name, func(b *testing.B) {
			n, err := cml.NewStandaloneNCB()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Service.Trace().Reset()
				if err := cml.RunScenario(sc, n.Platform.Broker, n.Service); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("handcrafted/"+sc.Name, func(b *testing.B) {
			n := baseline.NewHandcraftedNCB()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Service.Trace().Reset()
				if err := cml.RunScenario(sc, n, n.Service); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3 times intent-model generation on the 100-procedure
// repository: the cold full cycle and the amortised (cached) cycle (paper
// §VII-B: < 120 ms cold, approaching ~1 ms amortised).
func BenchmarkE3(b *testing.B) {
	b.Run("cold-cycle-100-procedures", func(b *testing.B) {
		repo, goal := experiments.BuildRepo(100)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gen := intent.NewGenerator(repo, nil, intent.Options{DisableCache: true})
			if _, err := gen.Generate(goal, expr.MapScope{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("amortised-cycle-100-procedures", func(b *testing.B) {
		repo, goal := experiments.BuildRepo(100)
		gen := intent.NewGenerator(repo, nil, intent.Options{})
		if _, err := gen.Generate(goal, expr.MapScope{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gen.Generate(goal, expr.MapScope{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE4 measures the CPU cost per command of the adaptive Controller
// against the fixed-wiring comparator (paper §VII-B: the adaptive layer is
// measurably slower when adaptation brings no benefit).
func BenchmarkE4(b *testing.B) {
	b.Run("adaptive-controller", func(b *testing.B) {
		s := experiments.NewAdaptiveStack()
		cmd := script.NewCommand("deliver", "pkt:0")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Controller.Process(cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("non-adaptive-controller", func(b *testing.B) {
		s := experiments.NewNonAdaptiveStack()
		cmd := script.NewCommand("deliver", "pkt:0")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Controller.Process(cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIMCache isolates the generation cache's contribution to
// the E3 amortisation (DESIGN.md §4).
func BenchmarkAblationIMCache(b *testing.B) {
	for _, cached := range []bool{true, false} {
		name := "cache-on"
		if !cached {
			name = "cache-off"
		}
		b.Run(name, func(b *testing.B) {
			repo, goal := experiments.BuildRepo(100)
			gen := intent.NewGenerator(repo, nil, intent.Options{DisableCache: !cached})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(goal, expr.MapScope{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ablationController builds a Controller where the same op can execute as
// a predefined action (Case 1) or via intent generation (Case 2),
// selectable through context.
func ablationController(b *testing.B) *controller.Controller {
	b.Helper()
	tx := dsc.NewTaxonomy()
	tx.MustAdd(&dsc.DSC{ID: "op.x", Domain: "d", Category: dsc.Operation})
	repo := registry.NewRepository(tx)
	repo.MustAdd(&registry.Procedure{
		ID: "x", ClassifiedBy: "op.x", Cost: 0,
		Unit: eu.NewUnit("x", eu.Invoke("do", "{target}")),
	})
	return controller.New(controller.Config{
		Name:       "ablate",
		Actions:    []*controller.Action{{Name: "direct", Ops: []string{"go"}, Steps: []script.Template{{Op: "do", Target: "{target}"}}}},
		Classes:    []controller.CommandClass{{Op: "go", GoalDSC: "op.x"}},
		Repository: repo,
		Policies: []policy.Policy{
			policy.Rule("force", 10, "forceIntent", policy.Effect{Key: "case", Value: "intent"}),
		},
	}, nullBroker{}, nil)
}

type nullBroker struct{}

func (nullBroker) Call(script.Command) error { return nil }

// BenchmarkAblationCase1VsCase2 compares the two execution paths of the
// Controller on the same command (paper §VI: predefined actions for
// efficiency, dynamic IM generation for flexibility).
func BenchmarkAblationCase1VsCase2(b *testing.B) {
	cmd := script.NewCommand("go", "t:1")
	b.Run("case1-predefined-action", func(b *testing.B) {
		c := ablationController(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Process(cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("case2-intent-generation", func(b *testing.B) {
		c := ablationController(b)
		c.Context().Set("forceIntent", true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.Process(cmd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationRepoSize sweeps the repository size for cold generation
// (the paper fixes 100 procedures; the sweep shows how cycle time scales).
func BenchmarkAblationRepoSize(b *testing.B) {
	for _, n := range []int{13, 50, 100, 400, 1000} {
		b.Run(fmt.Sprintf("procedures-%d", n), func(b *testing.B) {
			repo, goal := experiments.BuildRepo(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gen := intent.NewGenerator(repo, nil, intent.Options{DisableCache: true})
				if _, err := gen.Generate(goal, expr.MapScope{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPolicyCount sweeps the classification policy count
// (paper §VI: command classification consults domain policies on every
// command).
func BenchmarkAblationPolicyCount(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("policies-%d", n), func(b *testing.B) {
			pols := make([]policy.Policy, 0, n)
			for i := 0; i < n; i++ {
				pols = append(pols, policy.Rule(fmt.Sprintf("p%d", i), i,
					fmt.Sprintf("load > %d", i*10),
					policy.Effect{Key: "case", Value: "action"}))
			}
			c := controller.New(controller.Config{
				Name: "pol",
				Actions: []*controller.Action{{
					Name: "a", Ops: []string{"go"},
					Steps: []script.Template{{Op: "do", Target: "{target}"}},
				}},
				Policies: pols,
			}, nullBroker{}, nil)
			c.Context().Set("load", 5)
			cmd := script.NewCommand("go", "t:1")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Process(cmd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelSubmission measures a full UI→Synthesis→Controller→Broker
// round trip on the CVM (not a paper table; it contextualises the layered
// architecture's end-to-end cost).
func BenchmarkModelSubmission(b *testing.B) {
	vm, err := cml.New(domains.Config{})
	if err != nil {
		b.Fatal(err)
	}
	base := vm.Platform.UI.NewDraft()
	base.MustAdd("alice", "Person").SetAttr("name", "Alice")
	base.MustAdd("s1", "Session").SetRef("participants", "alice").SetRef("streams", "a1")
	base.MustAdd("a1", "Stream").SetAttr("media", "audio").SetAttr("session", "s1")
	if _, err := base.Submit(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edit := vm.Platform.UI.EditDraft()
		media := "audio"
		if i%2 == 0 {
			media = "video"
		}
		edit.Object("a1").SetAttr("media", media)
		if _, err := edit.Submit(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModel loads a bundled example model from testdata.
func benchModel(b *testing.B, name string) *metamodel.Model {
	b.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		b.Fatal(err)
	}
	m, err := metamodel.UnmarshalModel(data)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// validationFixtures pairs each bundled example model with its DSML. The
// models are validated once up front so the timed loops measure steady-state
// re-validation (idempotent — defaults already applied, values normalised),
// not first-touch default materialisation.
func validationFixtures(b *testing.B) []struct {
	name string
	mm   *metamodel.Metamodel
	m    *metamodel.Model
} {
	b.Helper()
	fixtures := []struct {
		name string
		mm   *metamodel.Metamodel
		m    *metamodel.Model
	}{
		{"cml-session", cml.Metamodel(), benchModel(b, "session.json")},
		{"mgrid-home", mgrid.Metamodel(), benchModel(b, "home.json")},
	}
	for _, f := range fixtures {
		if err := f.m.ValidateInterpreted(f.mm); err != nil {
			b.Fatal(err)
		}
	}
	return fixtures
}

// BenchmarkValidateInterpreted times the reference conformance walk on the
// bundled example models (the baseline the compiled validator must beat).
func BenchmarkValidateInterpreted(b *testing.B) {
	for _, f := range validationFixtures(b) {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.m.ValidateInterpreted(f.mm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkValidateCompiled times the same walk through the compiled
// metamodel form (flattened inheritance, enum membership sets, direct
// normalise slots). Acceptance: ≥ 2× faster than the interpreted walk.
func BenchmarkValidateCompiled(b *testing.B) {
	for _, f := range validationFixtures(b) {
		b.Run(f.name, func(b *testing.B) {
			cm, err := f.mm.Compiled()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cm.Validate(f.m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// pumpBenchPlatform builds a broker-only platform whose event action routes
// every event to ad, with the pump sharded n ways by event name.
func pumpBenchPlatform(b *testing.B, ad broker.Adapter, shards int) (*mdruntime.Platform, *obs.Metrics) {
	b.Helper()
	mb := mwmeta.NewBuilder("pump-bench", "bench")
	mb.BrokerLayer("brk").
		EventAction("handle", "*", "", false,
			mwmeta.StepSpec{Op: "handle", Target: "t"}).
		Bind("*", "main")
	m := obs.NewMetrics()
	p, err := mdruntime.Build(mb.Model(), mdruntime.Deps{
		Adapters: map[string]broker.Adapter{"main": ad},
		Metrics:  m,
	}, mdruntime.Config{PumpShards: shards, PumpQueue: 4096})
	if err != nil {
		b.Fatal(err)
	}
	return p, m
}

// BenchmarkPumpThroughput measures sharded event-pump throughput: events
// from 64 independent sources posted as fast as the pump accepts them, on
// a fast adapter and on a slow one (100µs per delivery — the regime the
// sharding exists for: at 1 shard the slow adapter serialises the whole
// platform, at N shards independent sources deliver concurrently while
// same-source events stay ordered). Each event is named after its source
// and carries no attributes, as in TestPumpHotPathAllocFree, so the fast
// adapter measures the post→shard→deliver pipeline itself; allocs/op read
// process-wide mallocs, so the shard workers are charged too.
func BenchmarkPumpThroughput(b *testing.B) {
	shardCounts := []int{1, 4}
	if n := goruntime.GOMAXPROCS(0); n > 4 {
		shardCounts = append(shardCounts, n)
	}
	mixes := []struct {
		name  string
		delay time.Duration
	}{
		{"fast-adapter", 0},
		{"slow-adapter-100us", 100 * time.Microsecond},
	}
	for _, mix := range mixes {
		for _, shards := range shardCounts {
			b.Run(fmt.Sprintf("%s/shards-%d", mix.name, shards), func(b *testing.B) {
				ad := broker.AdapterFunc(func(cmd script.Command) error {
					if mix.delay > 0 {
						time.Sleep(mix.delay)
					}
					return nil
				})
				p, m := pumpBenchPlatform(b, ad, shards)
				p.Start()
				defer p.Stop()
				srcs := make([]string, 64)
				for i := range srcs {
					srcs[i] = fmt.Sprintf("src-%d", i)
				}
				delivered := m.Counter(obs.MEventsDelivered)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev := broker.Event{Name: srcs[i%len(srcs)]}
					for !p.PostEvent(ev) {
						goruntime.Gosched() // backpressure: shard queue full
					}
				}
				for delivered.Value() < int64(b.N) {
					goruntime.Gosched()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}
}
