package cml

import (
	"fmt"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/resources/comm"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/simtime"
)

// MiddlewareModel authors the CVM middleware model: the four layers of
// Fig. 3 (UCI, SE, UCM, NCB) as an instance of the common middleware
// metamodel.
func MiddlewareModel() *metamodel.Model {
	b := mwmeta.NewBuilder("CVM", Domain)
	b.UILayer("UCI")
	b.SynthesisLayer("SE", LTSName)
	b.ControllerLayer("UCM").
		// Case 1: session control commands map directly to broker calls.
		PassthroughAction("sessionControl",
			"createSession,closeSession,addParticipant,removeParticipant,closeStream,reconfigureStream",
			"",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Action("attachment", "sendAttachment", "",
			mwmeta.StepSpec{Op: "sendData", Target: "{target}", Args: map[string]string{
				"session": "{session}", "bytes": "{sizeKB}",
			}}).
		// Asynchronous recovery: reconfigure a failed stream to the safe
		// audio profile.
		Action("recover", "recoverStream", "",
			mwmeta.StepSpec{Op: "reconfigureStream", Target: "{target}", Args: map[string]string{
				"session": "{session}", "media": "audio", "bandwidth": "32",
			}}).
		// Case 2: media connection establishment goes through dynamic
		// intent-model generation over the comm procedures.
		Class("openStream", "comm.connect").
		// Classification: under low memory, prefer dynamic generation for
		// everything that has a command class (paper §VI).
		Policy(mwmeta.PolicySpec{
			Name: "lowMemory", Priority: 10, Condition: "memoryLow",
			Effects: map[string]string{"case": "intent"},
		}).
		// Selection: secure contexts optimise for reliability.
		Policy(mwmeta.PolicySpec{
			Name: "secureCalls", Priority: 5, Condition: "securityLevel >= 2",
			Effects: map[string]string{"optimize": "reliability"},
		}).
		// Events the UCM forwards up to the SE for model-level recovery.
		EventAction("fwdStreamFailed", "streamFailed", "", true, "").
		Done().
		BrokerLayer("NCB").
		// The NCB realises every call by the equivalent service operation
		// — an exact copy of the original handcrafted broker (§VII-A).
		PassthroughAction("service", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "commService")
	return b.Model()
}

// CVM is the communication virtual machine: an MD-DSM platform wired to a
// simulated communication service.
type CVM struct {
	Platform *runtime.Platform
	Service  *comm.Service
	Clock    simtime.Clock
}

// New builds a CVM on a virtual clock, configured by cfg: the same
// assembly the registered "cml" bundle runs. Events from the
// communication service are delivered synchronously into the NCB so tests
// and scenarios are deterministic.
func New(cfg domains.Config) (*CVM, error) {
	def, err := shared()
	if err != nil {
		return nil, fmt.Errorf("cvm: %w", err)
	}
	vm, b := assemble(cfg)
	p, err := core.Build(def, b, cfg.Runtime)
	if err != nil {
		return nil, fmt.Errorf("cvm: %w", err)
	}
	vm.Platform = p
	return vm, nil
}

// Restoring a CVM from a runtime.Checkpoint snapshot goes through the
// bundle registry: domains.Restore("cml", snapshot, cfg) — the single
// registry-driven restore path that replaced the per-domain copies.

// assemble wires the CVM shell (virtual clock + simulated service) and
// the bindings of its platform, which New and the bundle share.
func assemble(cfg domains.Config) (*CVM, core.Bindings) {
	clock := simtime.NewVirtual()
	vm := &CVM{Clock: clock}
	vm.Service = comm.NewService(clock, func(e broker.Event) {
		if vm.Platform != nil {
			_ = vm.Platform.DeliverEvent(e)
		}
	})
	return vm, core.Bindings{
		Adapters:   map[string]broker.Adapter{"commService": NewAdapter(vm.Service)},
		Clock:      clock,
		Obs:        cfg.Obs,
		Injector:   cfg.Injector,
		Resilience: cfg.Resilience,
	}
}

// NCBModel authors a broker-only middleware model: the NCB layer alone,
// configured as an exact copy of the handcrafted broker. The §VII-A
// experiments drive this platform and the handcrafted baseline with the
// same call sequences and compare the resource traces.
func NCBModel() *metamodel.Model {
	b := mwmeta.NewBuilder("NCB-standalone", Domain)
	b.BrokerLayer("NCB").
		PassthroughAction("service", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		// In standalone mode the broker recovers failed streams itself by
		// reconfiguring to the safe audio profile.
		EventAction("recoverOnFail", "streamFailed", "", false,
			mwmeta.StepSpec{Op: "reconfigureStream", Target: "stream:{stream}",
				Args: map[string]string{
					"session": "{session}", "media": "audio", "bandwidth": "32",
				}}).
		Bind("*", "commService")
	return b.Model()
}

// StandaloneNCB is the model-based Broker layer wired to its own service.
type StandaloneNCB struct {
	Platform *runtime.Platform
	Service  *comm.Service
	Clock    *simtime.VirtualClock
}

// NewStandaloneNCB builds the model-based NCB over a fresh simulated
// service. Service events feed back into the broker synchronously.
func NewStandaloneNCB() (*StandaloneNCB, error) {
	clock := simtime.NewVirtual()
	n := &StandaloneNCB{Clock: clock}
	n.Service = comm.NewService(clock, func(e broker.Event) {
		if n.Platform != nil {
			_ = n.Platform.DeliverEvent(e)
		}
	})
	p, err := runtime.Build(NCBModel(), runtime.Deps{
		Adapters: map[string]broker.Adapter{"commService": NewAdapter(n.Service)},
		Clock:    clock,
	}, runtime.Config{})
	if err != nil {
		return nil, fmt.Errorf("standalone ncb: %w", err)
	}
	n.Platform = p
	return n, nil
}
