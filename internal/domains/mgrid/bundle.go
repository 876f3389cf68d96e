package mgrid

import (
	"sync"

	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/lts"
)

// shared memoises the checked MGridVM definition: the MGridML metamodel
// (and with it the compiled conformance validator), the MGridVM middleware
// model and its compiled plan, the taxonomy, the procedures and their
// repository, and the synthesis LTS. They are built and checked once, and
// every MGridVM shares them; none of them is modified.
var shared = sync.OnceValues(func() (*core.Checked, error) {
	return core.Check(core.Definition{
		Name:       "mgridvm",
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
		Name:    "mgrid",
		Doc:     "microgrid platform (MGridVM): sources, loads and battery policy over a simulated plant",
		Checked: shared,
		Assemble: func(cfg domains.Config) (*domains.Instance, error) {
			vm, b := assemble(cfg)
			return domains.NewInstance(b,
				func() string { return vm.Plant.Trace().String() },
				vm.attach,
			), nil
		},
	})
}
