// Package csense implements CSML and the Crowdsensing Virtual Machine
// (CSVM) on top of the MD-DSM core (paper §IV-D). CSML models represent
// crowdsensing queries; the CSVM interprets them to drive the acquisition
// of sensing data from participating devices and the processing that
// produces query results. For long-running queries, on-the-fly changes to
// the user's model dynamically reflect on the execution of the query.
//
// Deployment mirrors the paper's split: the configuration running on a
// mobile device has all four layers (users author query models there),
// while the provider runs the three bottom layers — its Synthesis layer
// receives query models shipped from devices and synthesises fleet-level
// execution.
package csense

import (
	"fmt"
	"strings"
	"sync"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/resources/sensing"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

// MetamodelName identifies the CSML metamodel.
const MetamodelName = "csml"

// Domain is the classifier-domain name.
const Domain = "csense"

// LTS names for the two deployments.
const (
	DeviceLTSName   = "csml-device"
	ProviderLTSName = "csml-provider"
)

// Metamodel builds the CSML metamodel: crowdsensing queries.
func Metamodel() *metamodel.Metamodel {
	m := metamodel.New(MetamodelName)
	m.MustAddEnum(&metamodel.Enum{Name: "Aggregate",
		Literals: []string{"avg", "min", "max", "count"}})
	m.MustAddClass(&metamodel.Class{Name: "Query",
		Attributes: []metamodel.Attribute{
			{Name: "sensor", Kind: metamodel.KindString, Required: true},
			// region filters participating devices ("" matches all).
			{Name: "region", Kind: metamodel.KindString, Default: ""},
			{Name: "aggregate", Kind: metamodel.KindEnum, EnumType: "Aggregate", Default: "avg"},
		},
	})
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("csml metamodel: %v", err))
	}
	return m
}

// DeviceLTS encodes the device-side synthesis semantics: query model
// changes ship the query specification to the provider.
func DeviceLTS() *lts.LTS {
	l := lts.New(DeviceLTSName, "run")
	l.On("run", "add-object:Query", "", "run",
		lts.CommandTemplate{Op: "shipQuery", Target: "query:{id}",
			Args: map[string]string{
				"sensor": "{sensor}", "region": "{region}", "aggregate": "{aggregate}",
			}})
	// Attribute changes re-ship the full (current) specification; the
	// synthesis scope binds every attribute of the changed object.
	l.On("run", "set-attr:Query.region", "", "run",
		lts.CommandTemplate{Op: "shipQuery", Target: "query:{id}",
			Args: map[string]string{
				"sensor": "{sensor}", "region": "{new}", "aggregate": "{aggregate}",
			}})
	l.On("run", "set-attr:Query.aggregate", "", "run",
		lts.CommandTemplate{Op: "shipQuery", Target: "query:{id}",
			Args: map[string]string{
				"sensor": "{sensor}", "region": "{region}", "aggregate": "{new}",
			}})
	l.On("run", "set-attr:Query.sensor", "", "run",
		lts.CommandTemplate{Op: "shipQuery", Target: "query:{id}",
			Args: map[string]string{
				"sensor": "{new}", "region": "{region}", "aggregate": "{aggregate}",
			}})
	l.On("run", "remove-object:Query", "", "run",
		lts.CommandTemplate{Op: "retractQuery", Target: "query:{id}"})
	return l
}

// ProviderLTS encodes the provider-side synthesis semantics over the
// provider's mirror of the active queries.
func ProviderLTS() *lts.LTS {
	l := lts.New(ProviderLTSName, "run")
	l.On("run", "add-object:Query", "", "run",
		lts.CommandTemplate{Op: "startQuery", Target: "query:{id}",
			Args: map[string]string{
				"sensor": "{sensor}", "region": "{region}", "aggregate": "{aggregate}",
			}})
	for _, attr := range []string{"sensor", "region", "aggregate"} {
		args := map[string]string{
			"sensor": "{sensor}", "region": "{region}", "aggregate": "{aggregate}",
		}
		args[attr] = "{new}"
		l.On("run", "set-attr:Query."+attr, "", "run",
			lts.CommandTemplate{Op: "updateQuery", Target: "query:{id}", Args: args})
	}
	l.On("run", "remove-object:Query", "", "run",
		lts.CommandTemplate{Op: "stopQuery", Target: "query:{id}"})
	return l
}

// querySpec is one active query at the engine.
type querySpec struct {
	ID        string
	Sensor    string
	Region    string
	Aggregate string
}

// Result is one query-round outcome.
type Result struct {
	Query   string
	Value   float64
	Samples int
	Round   int
}

// Engine executes active queries over the simulated fleet: the provider
// broker's resource. Each Tick runs one acquisition round per active query
// and emits queryResult events.
type Engine struct {
	mu     sync.Mutex
	fleet  *sensing.Fleet
	active map[string]*querySpec
	rounds map[string]int
	sink   func(Result)
}

// NewEngine builds an engine over a fleet. sink receives round results and
// may be nil.
func NewEngine(fleet *sensing.Fleet, sink func(Result)) *Engine {
	return &Engine{
		fleet:  fleet,
		active: make(map[string]*querySpec),
		rounds: make(map[string]int),
		sink:   sink,
	}
}

// Execute implements broker.Adapter for the provider's broker.
func (e *Engine) Execute(cmd script.Command) error {
	id := cmd.Target
	switch cmd.Op {
	case "startQuery", "updateQuery":
		e.mu.Lock()
		defer e.mu.Unlock()
		if cmd.Op == "startQuery" {
			if _, ok := e.active[id]; ok {
				return fmt.Errorf("csense engine: query %q already active", id)
			}
		} else if _, ok := e.active[id]; !ok {
			return fmt.Errorf("csense engine: update of unknown query %q", id)
		}
		e.active[id] = &querySpec{
			ID:        id,
			Sensor:    cmd.StringArg("sensor"),
			Region:    cmd.StringArg("region"),
			Aggregate: cmd.StringArg("aggregate"),
		}
		return nil
	case "stopQuery":
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := e.active[id]; !ok {
			return fmt.Errorf("csense engine: stop of unknown query %q", id)
		}
		delete(e.active, id)
		delete(e.rounds, id)
		return nil
	default:
		return fmt.Errorf("csense engine: unknown op %q", cmd.Op)
	}
}

// ActiveQueries returns the IDs of active queries sorted by ID order of
// the underlying map iteration made deterministic.
func (e *Engine) ActiveQueries() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.active))
	for id := range e.active {
		out = append(out, id)
	}
	sortStrings(out)
	return out
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// Tick runs one acquisition round for every active query, in ID order.
func (e *Engine) Tick() []Result {
	e.mu.Lock()
	specs := make([]*querySpec, 0, len(e.active))
	for _, s := range e.active {
		specs = append(specs, s)
	}
	e.mu.Unlock()
	// Deterministic order.
	for i := 1; i < len(specs); i++ {
		for j := i; j > 0 && specs[j].ID < specs[j-1].ID; j-- {
			specs[j], specs[j-1] = specs[j-1], specs[j]
		}
	}
	var out []Result
	for _, s := range specs {
		readings := e.fleet.SampleAll(s.Sensor, s.Region)
		r := Result{Query: s.ID, Samples: len(readings)}
		switch s.Aggregate {
		case "count":
			r.Value = float64(len(readings))
		case "min":
			for i, rd := range readings {
				if i == 0 || rd.Value < r.Value {
					r.Value = rd.Value
				}
			}
		case "max":
			for i, rd := range readings {
				if i == 0 || rd.Value > r.Value {
					r.Value = rd.Value
				}
			}
		default: // avg
			sum := 0.0
			for _, rd := range readings {
				sum += rd.Value
			}
			if len(readings) > 0 {
				r.Value = sum / float64(len(readings))
			}
		}
		e.mu.Lock()
		e.rounds[s.ID]++
		r.Round = e.rounds[s.ID]
		e.mu.Unlock()
		out = append(out, r)
		if e.sink != nil {
			e.sink(r)
		}
	}
	return out
}

// ProviderModel authors the provider middleware model: Synthesis +
// Controller + Broker (no UI — models are created on devices).
func ProviderModel() *metamodel.Model {
	b := mwmeta.NewBuilder("CSVM-provider", Domain)
	b.SynthesisLayer("PSE", ProviderLTSName)
	b.ControllerLayer("PCM").
		PassthroughAction("queries", "startQuery,updateQuery,stopQuery", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Done().
		BrokerLayer("PSB").
		PassthroughAction("engine", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "engine")
	return b.Model()
}

// DeviceModel authors the device middleware model: all four layers; the
// broker's resource is the link to the provider.
func DeviceModel() *metamodel.Model {
	b := mwmeta.NewBuilder("CSVM-device", Domain)
	b.UILayer("DUI")
	b.SynthesisLayer("DSE", DeviceLTSName)
	b.ControllerLayer("DCM").
		PassthroughAction("ship", "shipQuery,retractQuery", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Done().
		BrokerLayer("DLB").
		PassthroughAction("uplink", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "providerLink")
	return b.Model()
}

// gateway is the provider's uplink endpoint: it maintains the union
// mirror of all devices' shipped queries as a provider-side CSML model and
// submits it to the provider's Synthesis layer — the model itself travels
// between the deployments. All device links share one gateway so queries
// from different devices coexist.
type gateway struct {
	mu       sync.Mutex
	provider *runtime.Platform
	mirror   *metamodel.Model
}

func newGateway(provider *runtime.Platform) *gateway {
	return &gateway{provider: provider, mirror: metamodel.NewModel(MetamodelName)}
}

// link is one device broker's adapter into the shared gateway. Query IDs
// are namespaced by device so two devices' models cannot collide.
type link struct {
	gw     *gateway
	device string
}

func newLink(gw *gateway, device string) *link {
	return &link{gw: gw, device: device}
}

// Execute implements broker.Adapter.
func (l *link) Execute(cmd script.Command) error {
	l.gw.mu.Lock()
	defer l.gw.mu.Unlock()
	// The device ships "query:<id>" targets; the mirror stores bare IDs
	// (namespaced by device) so the provider's own synthesis re-derives
	// the prefixed target.
	id := l.device + "/" + strings.TrimPrefix(cmd.Target, "query:")
	switch cmd.Op {
	case "shipQuery":
		o := l.gw.mirror.Get(id)
		if o == nil {
			o = l.gw.mirror.NewObject(id, "Query")
		}
		o.SetAttr("sensor", cmd.StringArg("sensor"))
		o.SetAttr("region", cmd.StringArg("region"))
		o.SetAttr("aggregate", cmd.StringArg("aggregate"))
	case "retractQuery":
		if err := l.gw.mirror.Delete(id); err != nil {
			return fmt.Errorf("csense link: %w", err)
		}
	default:
		return fmt.Errorf("csense link: unknown op %q", cmd.Op)
	}
	_, err := l.gw.provider.SubmitModel(l.gw.mirror)
	return err
}

// CSVM is a complete crowdsensing deployment: one or more device
// platforms, the provider platform, the query engine and the simulated
// fleet. Device is the default device created by New; AddDevice spawns
// further participating devices, whose query models coexist at the
// provider.
type CSVM struct {
	Device   *runtime.Platform
	Provider *runtime.Platform
	Engine   *Engine
	Fleet    *sensing.Fleet

	gw      *gateway
	mu      sync.Mutex
	devices []*runtime.Platform
	results []Result
}

// New builds a CSVM over a fleet seeded deterministically.
func New(seed int64) (*CSVM, error) {
	vm := &CSVM{Fleet: sensing.NewFleet(nil, seed)}
	vm.Engine = NewEngine(vm.Fleet, func(r Result) {
		vm.mu.Lock()
		vm.results = append(vm.results, r)
		vm.mu.Unlock()
		// Results travel back to every participating device as events.
		for _, dev := range vm.Devices() {
			_ = dev.DeliverEvent(broker.Event{Name: "queryResult", Attrs: map[string]any{
				"query": r.Query, "value": r.Value, "samples": r.Samples, "round": r.Round,
			}})
		}
	})

	def, err := sharedProvider()
	if err != nil {
		return nil, fmt.Errorf("csvm provider: %w", err)
	}
	provider, err := core.Build(def, core.Bindings{
		Adapters: map[string]broker.Adapter{"engine": vm.Engine},
	}, runtime.Config{})
	if err != nil {
		return nil, fmt.Errorf("csvm provider: %w", err)
	}
	vm.Provider = provider

	vm.gw = newGateway(provider)
	device, err := vm.AddDevice("device0")
	if err != nil {
		return nil, err
	}
	vm.Device = device
	return vm, nil
}

// AddDevice spawns another participating device platform (all four
// layers). Its user authors query models independently; the shared gateway
// unions them at the provider.
func (vm *CSVM) AddDevice(name string) (*runtime.Platform, error) {
	def, err := sharedDevice()
	if err != nil {
		return nil, fmt.Errorf("csvm device %s: %w", name, err)
	}
	device, err := core.Build(def, core.Bindings{
		Adapters: map[string]broker.Adapter{"providerLink": newLink(vm.gw, name)},
	}, runtime.Config{})
	if err != nil {
		return nil, fmt.Errorf("csvm device %s: %w", name, err)
	}
	vm.mu.Lock()
	vm.devices = append(vm.devices, device)
	vm.mu.Unlock()
	return device, nil
}

// Devices returns all device platforms, in creation order.
func (vm *CSVM) Devices() []*runtime.Platform {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return append([]*runtime.Platform(nil), vm.devices...)
}

// Results returns a copy of all delivered round results.
func (vm *CSVM) Results() []Result {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return append([]Result(nil), vm.results...)
}
