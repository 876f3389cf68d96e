package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/domains/csense"
	"github.com/mddsm/mddsm/internal/domains/mgrid"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
	"github.com/mddsm/mddsm/internal/domgen"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/runtime"
)

// sharedCase is one bundle of TestFiftyTenantsPerBundleShareDefinitions:
// model(k) is a tenant's k-th submission, and a tenant's submissions only
// ever add objects (or, for the generated domain, drive a sink that
// accepts anything), so they apply to a freshly rehydrated shell too.
type sharedCase struct {
	bundle string
	model  func(k int) *metamodel.Model
	event  func(i int) broker.Event
}

func sharedCases(t *testing.T) []sharedCase {
	t.Helper()
	d, err := domgen.Register(domgen.Spec{Name: "shared-churn", Seed: 91, Classes: 4, Depth: 2,
		AttrsPerClass: 3, Enums: 1, EnumLiterals: 2, LTSStates: 3, LTSShape: domgen.ShapeRing,
		LTSDensity: 0.5, EventTypes: 3, InitialObjects: 8})
	if err != nil {
		t.Fatal(err)
	}
	session := sessionModel(t)
	named := func(name string, attrs map[string]any) func(int) broker.Event {
		return func(i int) broker.Event {
			ev := broker.Event{Name: name, Attrs: map[string]any{"key": fmt.Sprintf("k%d", i%4), "seq": i}}
			for k, v := range attrs {
				ev.Attrs[k] = v
			}
			return ev
		}
	}
	return []sharedCase{
		{"cml", func(k int) *metamodel.Model {
			m := session.Clone()
			for i := 0; i < k; i++ {
				m.NewObject(fmt.Sprintf("x%d", i), "Session").SetAttr("topic", "extra")
			}
			return m
		}, named("streamFailed", map[string]any{"session": "s1", "stream": "a1"})},
		{"mgrid", func(k int) *metamodel.Model {
			m := metamodel.NewModel(mgrid.MetamodelName)
			policies := []string{"reserve"}
			for i := 0; i < k; i++ {
				policies = append(policies, fmt.Sprintf("p%d", i))
			}
			m.NewObject("home", "Microgrid").SetAttr("name", "Casa Verde").
				SetRef("devices", "solar", "battery").SetRef("policies", policies...)
			m.NewObject("solar", "DeviceCfg").SetAttr("kind", "solar").SetAttr("capacity", 5).SetAttr("output", 3)
			m.NewObject("battery", "DeviceCfg").SetAttr("kind", "battery").SetAttr("capacity", 10)
			for _, p := range policies {
				m.NewObject(p, "EnergyPolicy").SetAttr("name", p).SetAttr("reserve", 0.3)
			}
			return m
		}, named("rebalanceNeeded", map[string]any{"headroom": 1.5})},
		{"smartspace", func(k int) *metamodel.Model {
			m := metamodel.NewModel(smartspace.MetamodelName)
			m.NewObject("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
			for i := 0; i <= k; i++ {
				m.NewObject(fmt.Sprintf("r%d", i), "Rule").SetAttr("onEvent", "objectEntered").
					SetAttr("subject", "*").SetAttr("targetObject", "lamp1").
					SetAttr("prop", "on").SetAttr("value", "true")
			}
			return m
		}, named("objectEntered", map[string]any{"object": "badge-ana"})},
		{"csense", func(k int) *metamodel.Model {
			m := metamodel.NewModel(csense.MetamodelName)
			for i := 0; i <= k; i++ {
				m.NewObject(fmt.Sprintf("q%d", i), "Query").SetAttr("sensor", "temperature")
			}
			return m
		}, named("queryResult", map[string]any{"query": "q0", "value": 1.0})},
		{d.Name, func(k int) *metamodel.Model {
			if k%2 == 1 {
				return metamodel.NewModel(d.Initial().MetamodelName)
			}
			return d.Initial()
		}, d.Event},
	}
}

// TestFiftyTenantsPerBundleShareDefinitions runs 50 tenants of every
// built-in bundle and of one generated domain behind 8 residency slots,
// for the race detector. Eight goroutines post events to any tenant and
// submit models to their own tenants concurrently, so tenants are evicted
// and rehydrated over their bundle's shared, checked definition. Every
// tenant's ledger stays exact, and every resident platform of a bundle
// holds the same definition and compiled plan.
func TestFiftyTenantsPerBundleShareDefinitions(t *testing.T) {
	const tenants, workers, ops = 50, 8, 100
	for _, c := range sharedCases(t) {
		t.Run(c.bundle, func(t *testing.T) {
			s := NewServer(Config{MaxResident: 8})
			defer s.Close()
			names := make([]string, tenants)
			for i := range names {
				names[i] = fmt.Sprintf("%s-%02d", c.bundle, i)
				if err := s.Create(names[i], c.bundle); err != nil {
					t.Fatal(err)
				}
			}
			var accepted, rejected [tenants]atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					submitted := make(map[int]int) // own tenant -> submissions so far
					for i := 0; i < ops; i++ {
						if i%4 == 0 {
							k := g + workers*rng.Intn(tenants/workers)
							if _, err := s.SubmitModel(names[k], c.model(submitted[k])); err != nil {
								t.Errorf("submit %s: %v", names[k], err)
							}
							submitted[k]++
							continue
						}
						k := rng.Intn(tenants)
						switch err := s.PostEvent(names[k], c.event(i)); {
						case err == nil:
							accepted[k].Add(1)
						case errors.Is(err, ErrQueueFull):
							rejected[k].Add(1)
						default:
							t.Errorf("post %s: %v", names[k], err)
						}
					}
				}(g)
			}
			wg.Wait()

			s.mu.Lock()
			var first *tenant
			for _, tn := range s.tenants {
				if first == nil {
					first = tn
					continue
				}
				p, q := tn.inst.Platform, first.inst.Platform
				if p.Synthesis.LTS() != q.Synthesis.LTS() || p.Controller.Repository() != q.Controller.Repository() {
					t.Errorf("tenants %s and %s hold different definitions", tn.name, first.name)
				}
				if p.Plan() != q.Plan() || p.Plan().Model() != q.Plan().Model() {
					t.Errorf("tenants %s and %s run different plans", tn.name, first.name)
				}
			}
			s.mu.Unlock()
			if n := s.Obs().MetricsOf().CounterValue(obs.MServeRehydrations); n == 0 {
				t.Error("no tenant was rehydrated")
			}
			var posted int64
			for i, name := range names {
				posted += accepted[i].Load()
				_ = s.Evict(name) // drains the resident ones; parked ones refuse
				a, err := s.Accounting(name)
				if err != nil {
					t.Fatal(err)
				}
				if !a.Exact() || a.Posted != accepted[i].Load() || a.Rejected != rejected[i].Load() {
					t.Errorf("%s ledger %+v, want exact with %d posted and %d rejected",
						name, a, accepted[i].Load(), rejected[i].Load())
				}
			}
			if posted == 0 {
				t.Error("no event was accepted")
			}
		})
	}
}

// TestTenantsShareBundlePlan: every platform of a bundle runs the bundle's
// one compiled plan and middleware model. Two tenants, one of them parked
// and rehydrated, and the domain package's own New (where it has one)
// hold the same plan and model pointers, while each is its own platform.
func TestTenantsShareBundlePlan(t *testing.T) {
	newVM := map[string]func() (*runtime.Platform, error){
		"cml": func() (*runtime.Platform, error) {
			vm, err := cml.New(domains.Config{})
			if err != nil {
				return nil, err
			}
			return vm.Platform, nil
		},
		"mgrid": func() (*runtime.Platform, error) {
			vm, err := mgrid.New(domains.Config{})
			if err != nil {
				return nil, err
			}
			return vm.Platform, nil
		},
		"smartspace": func() (*runtime.Platform, error) {
			vm, err := smartspace.New(domains.Config{})
			if err != nil {
				return nil, err
			}
			return vm.Platform, nil
		},
		"csense": func() (*runtime.Platform, error) {
			vm, err := csense.New(1)
			if err != nil {
				return nil, err
			}
			return vm.Provider, nil
		},
	}
	for _, c := range sharedCases(t) {
		t.Run(c.bundle, func(t *testing.T) {
			s := NewServer(Config{})
			defer s.Close()
			platform := func(name string) *runtime.Platform {
				t.Helper()
				tn, err := s.resident(name)
				if err != nil {
					t.Fatal(err)
				}
				return tn.inst.Platform
			}
			for _, name := range []string{"a", "b"} {
				if err := s.Create(name, c.bundle); err != nil {
					t.Fatal(err)
				}
			}
			parked := platform("a")
			if _, err := s.SubmitModel("a", c.model(1)); err != nil {
				t.Fatal(err)
			}
			if err := s.Evict("a"); err != nil {
				t.Fatal(err)
			}
			rehydrated := platform("a")
			if rehydrated == parked {
				t.Fatal("tenant a was not rehydrated")
			}
			platforms := []*runtime.Platform{parked, platform("b"), rehydrated}
			if build, ok := newVM[c.bundle]; ok {
				p, err := build()
				if err != nil {
					t.Fatal(err)
				}
				defer p.Stop()
				platforms = append(platforms, p)
			}
			plan := parked.Plan()
			for i, p := range platforms[1:] {
				if p.Plan() != plan {
					t.Errorf("platform %d runs a different plan", i+1)
				}
				if p.Plan().Model() != plan.Model() {
					t.Errorf("platform %d runs a different middleware model", i+1)
				}
			}
		})
	}
}
