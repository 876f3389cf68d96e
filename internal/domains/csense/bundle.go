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

// sharedProvider memoises the checked provider definition: the CSML
// metamodel, the provider middleware model and its compiled plan, and the
// provider LTS, checked once and shared by every provider platform —
// bundle instances and New's; none of them is modified.
var sharedProvider = sync.OnceValues(func() (*core.Checked, error) {
	return core.Check(core.Definition{
		Name:       "csvm-provider",
		DSML:       sharedDSML(),
		Middleware: ProviderModel(),
		DSK:        core.DSK{LTSes: map[string]*lts.LTS{ProviderLTSName: ProviderLTS()}},
	})
})

// sharedDevice memoises the checked device definition (the CSML
// metamodel, the device middleware model and its compiled plan, and the
// device LTS) that every device platform of New's deployments shares.
var sharedDevice = sync.OnceValues(func() (*core.Checked, error) {
	return core.Check(core.Definition{
		Name:       "csvm-device",
		DSML:       sharedDSML(),
		Middleware: DeviceModel(),
		DSK:        core.DSK{LTSes: map[string]*lts.LTS{DeviceLTSName: DeviceLTS()}},
	})
})

func init() {
	domains.Register(domains.Bundle{
		Name: "csense",
		Doc:  "crowdsensing provider platform (CSVM): query synthesis and fleet acquisition over a simulated device fleet",
		// The bundle provisions the provider configuration (the three
		// bottom layers, paper §IV-D): query models are submitted into its
		// Synthesis layer and executed against a deterministic simulated
		// fleet. Round results come back up as top-of-stack "queryResult"
		// events.
		Checked: sharedProvider,
		Assemble: func(cfg domains.Config) (*domains.Instance, error) {
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
			b := core.Bindings{
				Adapters:   map[string]broker.Adapter{"engine": engine},
				Obs:        cfg.Obs,
				Injector:   cfg.Injector,
				Resilience: cfg.Resilience,
			}
			return domains.NewInstance(b,
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
