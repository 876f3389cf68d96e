package mgrid

import (
	"sync"

	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/runtime"
)

// sharedDSML memoises the MGML metamodel so every MGridVM shares one
// compiled conformance validator.
var sharedDSML = sync.OnceValue(Metamodel)

// sharedMiddleware memoises the authored MGridVM middleware model. It is
// never modified: Build validates a copy, and a restore runs the
// snapshot's model instead.
var sharedMiddleware = sync.OnceValue(MiddlewareModel)

func init() {
	domains.Register(domains.Bundle{
		Name: "mgrid",
		Doc:  "microgrid platform (MGridVM): sources, loads and battery policy over a simulated plant",
		Assemble: func(cfg domains.Config) (*domains.Instance, error) {
			vm, def, _ := assemble(optionsFrom(cfg))
			return domains.NewInstance(def,
				func() string { return vm.Plant.Trace().String() },
				func(p *runtime.Platform, restored bool) {
					vm.Platform = p
					// Construction seeds the autonomic telemetry variables;
					// a restored snapshot's checkpointed values win, the
					// seeds fill only the keys it does not carry.
					ctx := p.Broker.Context()
					if _, ok := ctx.Get("batteryCharge"); !ok || !restored {
						ctx.Set("batteryCharge", 1e9)
					}
					if _, ok := ctx.Get("reserveKWh"); !ok || !restored {
						ctx.Set("reserveKWh", 0.0)
					}
				},
			), nil
		},
	})
}

// optionsFrom maps a bundle config onto this package's option surface
// (the zero Resilience disables itself, so it passes through unguarded).
func optionsFrom(cfg domains.Config) []Option {
	opts := []Option{WithResilience(cfg.Resilience)}
	if cfg.Obs != nil {
		opts = append(opts, WithObs(cfg.Obs))
	}
	if cfg.Injector != nil {
		opts = append(opts, WithFault(cfg.Injector))
	}
	return opts
}
