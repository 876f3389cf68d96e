// Package mgrid implements the Microgrid Modeling Language (MGridML) and
// the Microgrid Virtual Machine (MGridVM) on top of the MD-DSM core (paper
// §IV-B). MGridML models express the configuration requirements of energy
// management in a microgrid (such as a home); MGridVM interprets the model
// to realise the state of the system through the simulated plant in
// internal/resources/microgrid.
//
// Unlike the communication domain, the microgrid platform follows the
// semantics of a centralised application: a shared main processing unit,
// full resource visibility and policy-driven autonomic behaviour at the
// hardware-broker layer (MHB). The four layers carry the paper's names:
// MUI, MSE, MCM, MHB.
package mgrid

import (
	"fmt"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/eu"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/resources/microgrid"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/simtime"
)

// MetamodelName identifies the MGridML metamodel.
const MetamodelName = "mgridml"

// Domain is the classifier-domain name.
const Domain = "mgrid"

// LTSName names the synthesis semantics.
const LTSName = "mgrid-synthesis"

// Metamodel builds the MGridML metamodel: the microgrid root, its device
// configurations and the energy policies the user declares.
func Metamodel() *metamodel.Metamodel {
	m := metamodel.New(MetamodelName)
	m.MustAddEnum(&metamodel.Enum{Name: "DeviceKind",
		Literals: []string{"solar", "battery", "load", "gridtie"}})
	m.MustAddClass(&metamodel.Class{Name: "Microgrid",
		Attributes: []metamodel.Attribute{
			{Name: "name", Kind: metamodel.KindString, Required: true},
		},
		References: []metamodel.Reference{
			{Name: "devices", Target: "DeviceCfg", Containment: true, Many: true},
			{Name: "policies", Target: "EnergyPolicy", Containment: true, Many: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: "DeviceCfg",
		Attributes: []metamodel.Attribute{
			{Name: "kind", Kind: metamodel.KindEnum, EnumType: "DeviceKind", Required: true},
			{Name: "capacity", Kind: metamodel.KindFloat, Required: true},
			{Name: "output", Kind: metamodel.KindFloat, Default: 0.0},
			{Name: "online", Kind: metamodel.KindBool, Default: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: "EnergyPolicy",
		Attributes: []metamodel.Attribute{
			{Name: "name", Kind: metamodel.KindString, Required: true},
			// reserve is the battery fraction below which load shedding
			// is requested.
			{Name: "reserve", Kind: metamodel.KindFloat, Default: 0.2},
		},
	})
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("mgridml metamodel: %v", err))
	}
	return m
}

// SynthesisLTS encodes the MGridML synthesis semantics.
func SynthesisLTS() *lts.LTS {
	l := lts.New(LTSName, "run")
	l.On("run", "add-object:DeviceCfg", "", "run",
		lts.CommandTemplate{Op: "provisionDevice", Target: "device:{id}",
			Args: map[string]string{
				"kind": "{kind}", "capacity": "{capacity}",
				"output": "{output}", "online": "{online}",
			}})
	l.On("run", "remove-object:DeviceCfg", "", "run",
		lts.CommandTemplate{Op: "decommissionDevice", Target: "device:{id}"})
	l.On("run", "set-attr:DeviceCfg.output", "", "run",
		lts.CommandTemplate{Op: "dispatchOutput", Target: "device:{id}",
			Args: map[string]string{"kw": "{new}"}})
	l.On("run", "set-attr:DeviceCfg.online", "", "run",
		lts.CommandTemplate{Op: "switchDevice", Target: "device:{id}",
			Args: map[string]string{"online": "{new}"}})
	l.On("run", "add-object:EnergyPolicy", "", "run",
		lts.CommandTemplate{Op: "armPolicy", Target: "policy:{id}",
			Args: map[string]string{"name": "{name}", "reserve": "{reserve}"}})
	l.On("run", "remove-object:EnergyPolicy", "", "run",
		lts.CommandTemplate{Op: "disarmPolicy", Target: "policy:{id}"})
	// Rebalance requests raised by the MCM's event handler when telemetry
	// shows over-draw; users may also trigger it via model updates.
	l.On("run", "event:rebalanceNeeded", "", "run",
		lts.CommandTemplate{Op: "balance", Target: "grid",
			Args: map[string]string{"headroom": "{headroom}"}})
	return l
}

// Taxonomy builds the microgrid classifier hierarchy.
func Taxonomy() *dsc.Taxonomy {
	tx := dsc.NewTaxonomy()
	add := func(id, parent string, cat dsc.Category, desc string) {
		tx.MustAdd(&dsc.DSC{ID: id, Name: id, Domain: Domain, Category: cat,
			Parent: parent, Description: desc})
	}
	add("mgrid.balance", "", dsc.Operation, "rebalance generation vs consumption")
	add("mgrid.source", "", dsc.Operation, "raise generation")
	add("mgrid.source.battery", "mgrid.source", dsc.Operation, "discharge the battery")
	add("mgrid.source.grid", "mgrid.source", dsc.Operation, "import from the grid")
	add("mgrid.relief", "", dsc.Operation, "reduce consumption")
	add("mgrid.data.telemetry", "", dsc.Data, "plant telemetry snapshot")
	if err := tx.Validate(); err != nil {
		panic(fmt.Sprintf("mgrid taxonomy: %v", err))
	}
	return tx
}

// Procedures builds the energy-management procedures: the balance goal has
// battery-first and grid-first strategies; relief sheds load.
func Procedures() []*registry.Procedure {
	return []*registry.Procedure{
		{
			ID: "balanceBatteryFirst", Name: "battery-first balance", Domain: Domain,
			ClassifiedBy: "mgrid.balance",
			Dependencies: []string{"mgrid.source.battery"},
			Cost:         5, Reliability: 0.98,
			Tags: map[string]string{"strategy": "green"},
			Unit: eu.NewUnit("balanceBatteryFirst",
				eu.Call("mgrid.source.battery"),
			),
		},
		{
			ID: "balanceGridFirst", Name: "grid-first balance", Domain: Domain,
			ClassifiedBy: "mgrid.balance",
			Dependencies: []string{"mgrid.source.grid"},
			Cost:         3, Reliability: 0.999,
			Tags: map[string]string{"strategy": "grid"},
			Unit: eu.NewUnit("balanceGridFirst",
				eu.Call("mgrid.source.grid"),
			),
		},
		{
			ID: "batteryDischarge", Name: "battery discharge", Domain: Domain,
			ClassifiedBy: "mgrid.source.battery",
			Cost:         2, Reliability: 0.97,
			Unit: eu.NewUnit("batteryDischarge",
				eu.Invoke("setOutput", "device:battery", "kw", "headroom"),
			),
		},
		{
			ID: "gridImport", Name: "grid import", Domain: Domain,
			ClassifiedBy: "mgrid.source.grid",
			Cost:         1, Reliability: 0.999,
			Unit: eu.NewUnit("gridImport",
				eu.Invoke("setOutput", "device:gridtie", "kw", "headroom"),
			),
		},
		{
			ID: "shedDiscretionary", Name: "shed discretionary load", Domain: Domain,
			ClassifiedBy: "mgrid.relief",
			Cost:         4, Reliability: 0.99,
			Unit: eu.NewUnit("shedDiscretionary",
				eu.Invoke("shedLoad", "device:load", "kw", "1"),
			),
		},
	}
}

// Adapter bridges MHB resource commands to the simulated plant.
type Adapter struct {
	plant *microgrid.Plant
}

var _ broker.Adapter = (*Adapter)(nil)

// NewAdapter wraps a plant.
func NewAdapter(plant *microgrid.Plant) *Adapter { return &Adapter{plant: plant} }

func deviceID(target string) string {
	for i := 0; i < len(target); i++ {
		if target[i] == ':' {
			return target[i+1:]
		}
	}
	return target
}

// Execute implements broker.Adapter.
func (a *Adapter) Execute(cmd script.Command) error {
	id := deviceID(cmd.Target)
	switch cmd.Op {
	case "registerDevice":
		return a.plant.RegisterDevice(id, microgrid.DeviceKind(cmd.StringArg("kind")), cmd.NumArg("capacity"))
	case "setOnline":
		return a.plant.SetOnline(id, cmd.BoolArg("online"))
	case "setOutput":
		return a.plant.SetOutput(id, cmd.NumArg("kw"))
	case "shedLoad":
		return a.plant.ShedLoad(id, cmd.NumArg("kw"))
	default:
		return fmt.Errorf("mgrid adapter: unknown op %q", cmd.Op)
	}
}

// MiddlewareModel authors the MGridVM middleware model (layers MUI, MSE,
// MCM, MHB). The MCM relies mostly on predefined actions — the centralised
// domain favours efficiency over flexibility (paper §VI) — with the balance
// operation as the Case-2 exception, and the MHB carries the autonomic
// battery-reserve symptom.
func MiddlewareModel() *metamodel.Model {
	b := mwmeta.NewBuilder("MGridVM", Domain)
	b.UILayer("MUI")
	b.SynthesisLayer("MSE", LTSName)
	b.ControllerLayer("MCM").
		// provisionDevice fans out to register + switch + dispatch.
		Action("provision", "provisionDevice", "",
			mwmeta.StepSpec{Op: "registerDevice", Target: "{target}",
				Args: map[string]string{"kind": "{kind}", "capacity": "{capacity}"}},
			mwmeta.StepSpec{Op: "setOnline", Target: "{target}",
				Args: map[string]string{"online": "{online}"}},
			mwmeta.StepSpec{Op: "setOutput", Target: "{target}",
				Args: map[string]string{"kw": "{output}"}}).
		Action("decommission", "decommissionDevice", "",
			mwmeta.StepSpec{Op: "setOnline", Target: "{target}",
				Args: map[string]string{"online": "false"}}).
		PassthroughAction("dispatch", "dispatchOutput", "",
			mwmeta.StepSpec{Op: "setOutput", Target: "{target}"}).
		Action("switch", "switchDevice", "",
			mwmeta.StepSpec{Op: "setOnline", Target: "{target}",
				Args: map[string]string{"online": "{online}"}}).
		Action("armPolicy", "armPolicy,disarmPolicy", "").
		Class("balance", "mgrid.balance").
		// Green contexts prefer the battery-first strategy.
		Policy(mwmeta.PolicySpec{
			Name: "greenMode", Priority: 5, Condition: "greenMode",
			Effects: map[string]string{"preferTag": "strategy=green"},
		}).
		Done().
		BrokerLayer("MHB").
		PassthroughAction("plant", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		// Autonomic manager: when the battery runs low, shed the
		// discretionary load (self-configuration at the broker layer).
		Symptom("batteryReserveLow", "batteryCharge < reserveKWh").
		ChangePlan("batteryReserveLow",
			mwmeta.StepSpec{Op: "shedLoad", Target: "device:load",
				Args: map[string]string{"kw": "1"}}).
		Bind("*", "plant")
	return b.Model()
}

// MGridVM is the microgrid virtual machine wired to a simulated plant.
type MGridVM struct {
	Platform *runtime.Platform
	Plant    *microgrid.Plant
	Clock    simtime.Clock
}

// New builds an MGridVM on a virtual clock, configured by cfg: the same
// assembly the registered "mgrid" bundle runs. Plant events are delivered
// synchronously into the MHB.
func New(cfg domains.Config) (*MGridVM, error) {
	def, err := shared()
	if err != nil {
		return nil, fmt.Errorf("mgridvm: %w", err)
	}
	vm, b := assemble(cfg)
	p, err := core.Build(def, b, cfg.Runtime)
	if err != nil {
		return nil, fmt.Errorf("mgridvm: %w", err)
	}
	vm.attach(p, false)
	return vm, nil
}

// Restoring an MGridVM from a runtime.Checkpoint snapshot goes through
// the bundle registry: domains.Restore("mgrid", snapshot, cfg) — the
// single registry-driven restore path that replaced the per-domain
// copies.

// assemble wires the MGridVM shell (clock + simulated plant) and the
// bindings of its platform, which New and the bundle share.
func assemble(cfg domains.Config) (*MGridVM, core.Bindings) {
	clock := simtime.NewVirtual()
	vm := &MGridVM{Clock: clock}
	vm.Plant = microgrid.NewPlant(clock, func(e broker.Event) {
		if vm.Platform != nil {
			_ = vm.Platform.DeliverEvent(e)
		}
	})
	return vm, core.Bindings{
		Adapters:   map[string]broker.Adapter{"plant": NewAdapter(vm.Plant)},
		Clock:      clock,
		Obs:        cfg.Obs,
		Injector:   cfg.Injector,
		Resilience: cfg.Resilience,
	}
}

// attach binds a built or restored platform into the shell. The armPolicy
// action carries the reserve threshold into the MHB's autonomic context;
// attach seeds the telemetry variables so symptoms are observable from
// the start. A restored snapshot's checkpointed values win: the seeds
// fill only the keys it does not carry.
func (vm *MGridVM) attach(p *runtime.Platform, restored bool) {
	vm.Platform = p
	ctx := p.Broker.Context()
	if _, ok := ctx.Get("batteryCharge"); !ok || !restored {
		ctx.Set("batteryCharge", 1e9)
	}
	if _, ok := ctx.Get("reserveKWh"); !ok || !restored {
		ctx.Set("reserveKWh", 0.0)
	}
}

// publishTelemetry copies the current plant telemetry into the MHB context.
func (vm *MGridVM) publishTelemetry() {
	tel := vm.Plant.Telemetry()
	ctx := vm.Platform.Broker.Context()
	ctx.Set("batteryCharge", tel.BatteryCharge)
	ctx.Set("generation", tel.Generation)
	ctx.Set("consumption", tel.Consumption)
	ctx.Set("gridImport", tel.GridImport)
}

// SyncTelemetry publishes current plant telemetry into the MHB context and
// evaluates autonomic symptoms synchronously. Deterministic tests and the
// examples call it after Tick; long-running deployments use
// StartMonitoring instead.
func (vm *MGridVM) SyncTelemetry() error {
	vm.publishTelemetry()
	return vm.Platform.Broker.Autonomic().Evaluate()
}

// StartMonitoring launches the platform's autonomic monitor, publishing
// plant telemetry every interval. Stop it with vm.Platform.Stop (or
// StopMonitor).
func (vm *MGridVM) StartMonitoring(interval time.Duration) {
	vm.Platform.Monitor(interval, vm.publishTelemetry)
}

// SetReserve arms the autonomic battery reserve at the given kWh.
func (vm *MGridVM) SetReserve(kwh float64) {
	vm.Platform.Broker.Context().Set("reserveKWh", kwh)
}
