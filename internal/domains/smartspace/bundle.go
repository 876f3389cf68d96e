package smartspace

import (
	"sync"

	"github.com/mddsm/mddsm/internal/domains"
)

// sharedDSML memoises the 2SML metamodel so every 2SVM — built by New or
// provisioned through the bundle registry — shares one compiled
// conformance validator.
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
			vm, def := assemble(cfg)
			return domains.NewInstance(def,
				func() string { return vm.Hub.Space().Trace().String() },
				vm.attach,
			), nil
		},
	})
}
