package cml

import (
	"sync"

	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/runtime"
)

// sharedDSML memoises the CML metamodel so every CVM shares one
// *Metamodel — and with it the lazily compiled conformance validator,
// instead of recompiling per tenant.
var sharedDSML = sync.OnceValue(Metamodel)

// sharedMiddleware memoises the authored CVM middleware model. It is never
// modified: Build validates a copy, and a restore runs the snapshot's
// model instead.
var sharedMiddleware = sync.OnceValue(MiddlewareModel)

func init() {
	domains.Register(domains.Bundle{
		Name: "cml",
		Doc:  "communication platform (CVM): sessions, streams and attachments over a simulated comm service",
		Assemble: func(cfg domains.Config) (*domains.Instance, error) {
			vm, def := assemble(cfg)
			return domains.NewInstance(def,
				func() string { return vm.Service.Trace().String() },
				func(p *runtime.Platform, _ bool) { vm.Platform = p },
			), nil
		},
	})
}
