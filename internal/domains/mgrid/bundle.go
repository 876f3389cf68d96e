package mgrid

import (
	"sync"

	"github.com/mddsm/mddsm/internal/domains"
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
			vm, def := assemble(cfg)
			return domains.NewInstance(def,
				func() string { return vm.Plant.Trace().String() },
				vm.attach,
			), nil
		},
	})
}
