package smartspace

import (
	"sync"

	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/lts"
)

// shared memoises the checked 2SVM central definition: the 2SML metamodel
// (and with it the compiled conformance validator), the central
// middleware model and its compiled plan, and the synthesis LTS. They are
// built and checked once, and every 2SVM — built by New or provisioned
// through the bundle registry — shares them; none of them is modified.
var shared = sync.OnceValues(func() (*core.Checked, error) {
	return core.Check(core.Definition{
		Name:       "2svm",
		DSML:       Metamodel(),
		Middleware: CentralModel(),
		DSK:        core.DSK{LTSes: map[string]*lts.LTS{LTSName: SynthesisLTS()}},
	})
})

func init() {
	domains.Register(domains.Bundle{
		Name:    "smartspace",
		Doc:     "smart-space central platform (2SVM): users, objects and rules over a simulated space fabric",
		Checked: shared,
		Assemble: func(cfg domains.Config) (*domains.Instance, error) {
			vm, b := assemble(cfg)
			return domains.NewInstance(b,
				func() string { return vm.Hub.Space().Trace().String() },
				vm.attach,
			), nil
		},
	})
}
