package smartspace

import (
	"sync"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/runtime"
)

// sharedDSML memoises the 2SML metamodel so instances provisioned through
// the bundle registry share one compiled conformance validator.
var sharedDSML = sync.OnceValue(Metamodel)

// sharedCentral memoises the authored central middleware model. It is
// never modified: Build validates a copy, and a restore runs the
// snapshot's model instead.
var sharedCentral = sync.OnceValue(CentralModel)

func init() {
	domains.Register(domains.Bundle{
		Name: "smartspace",
		Doc:  "smart-space central platform (2SVM): users, objects and rules over a simulated space fabric",
		Assemble: func(cfg domains.Config) (*domains.Instance, error) {
			hub := NewHub()
			def := core.Definition{
				Name:       "2svm",
				DSML:       sharedDSML(),
				Middleware: sharedCentral(),
				DSK: core.DSK{
					LTSes:    map[string]*lts.LTS{LTSName: SynthesisLTS()},
					Adapters: map[string]broker.Adapter{"hub": hub},
				},
				Obs:        cfg.Obs,
				Injector:   cfg.Injector,
				Resilience: cfg.Resilience,
			}
			return domains.NewInstance(def,
				func() string { return hub.Space().Trace().String() },
				func(p *runtime.Platform, _ bool) {
					hub.central = func(e broker.Event) { _ = p.DeliverEvent(e) }
				},
			), nil
		},
	})
}
