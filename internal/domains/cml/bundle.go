package cml

import (
	"sync"

	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/runtime"
)

// shared memoises the checked CVM definition: the CML metamodel (and with
// it the lazily compiled conformance validator), the CVM middleware model
// and its compiled plan, the taxonomy, the procedures and their
// repository, and the synthesis LTS. They are built and checked once, and
// every CVM shares them; none of them is modified.
var shared = sync.OnceValues(func() (*core.Checked, error) {
	return core.Check(core.Definition{
		Name:       "cvm",
		DSML:       Metamodel(),
		Middleware: MiddlewareModel(),
		DSK: core.DSK{
			Taxonomy:   Taxonomy(),
			Procedures: Procedures(),
			LTSes:      map[string]*lts.LTS{LTSName: SynthesisLTS()},
		},
	})
})

func init() {
	domains.Register(domains.Bundle{
		Name:    "cml",
		Doc:     "communication platform (CVM): sessions, streams and attachments over a simulated comm service",
		Checked: shared,
		Assemble: func(cfg domains.Config) (*domains.Instance, error) {
			vm, b := assemble(cfg)
			return domains.NewInstance(b,
				func() string { return vm.Service.Trace().String() },
				func(p *runtime.Platform, _ bool) { vm.Platform = p },
			), nil
		},
	})
}
