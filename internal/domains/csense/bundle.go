package csense

import (
	"sync"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/resources/sensing"
	"github.com/mddsm/mddsm/internal/runtime"
)

// sharedDSML memoises the CSML metamodel so every CSVM platform — bundle
// instances and New's provider and devices — shares one compiled
// conformance validator.
var sharedDSML = sync.OnceValue(Metamodel)

// sharedProvider memoises the authored provider middleware model. It is
// never modified: Build validates a copy, and a restore runs the
// snapshot's model instead.
var sharedProvider = sync.OnceValue(ProviderModel)

func init() {
	domains.Register(domains.Bundle{
		Name: "csense",
		Doc:  "crowdsensing provider platform (CSVM): query synthesis and fleet acquisition over a simulated device fleet",
		Assemble: func(cfg domains.Config) (*domains.Instance, error) {
			// The bundle provisions the provider configuration (the three
			// bottom layers, paper §IV-D): query models are submitted into
			// its Synthesis layer and executed against a deterministic
			// simulated fleet. Round results come back up as
			// top-of-stack "queryResult" events.
			fleet := sensing.NewFleet(nil, 1)
			var (
				mu       sync.Mutex
				platform *runtime.Platform
			)
			engine := NewEngine(fleet, func(r Result) {
				mu.Lock()
				p := platform
				mu.Unlock()
				if p != nil {
					_ = p.DeliverEvent(broker.Event{Name: "queryResult", Attrs: map[string]any{
						"query": r.Query, "value": r.Value, "samples": r.Samples, "round": r.Round,
					}})
				}
			})
			def := core.Definition{
				Name:       "csvm-provider",
				DSML:       sharedDSML(),
				Middleware: sharedProvider(),
				DSK: core.DSK{
					LTSes:    map[string]*lts.LTS{ProviderLTSName: ProviderLTS()},
					Adapters: map[string]broker.Adapter{"engine": engine},
				},
				Obs:        cfg.Obs,
				Injector:   cfg.Injector,
				Resilience: cfg.Resilience,
			}
			return domains.NewInstance(def,
				func() string { return fleet.Trace().String() },
				func(p *runtime.Platform, _ bool) {
					mu.Lock()
					platform = p
					mu.Unlock()
				},
			), nil
		},
	})
}
