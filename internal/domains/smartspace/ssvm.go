// Package smartspace implements 2SML and the Smart Spaces Virtual Machine
// (2SVM) on top of the MD-DSM core (paper §IV-C). The language constructs
// represent the main kinds of elements of a smart space — users, smart
// objects and ubiquitous applications (rules) — and the execution engine
// configures the programmable entities of the space.
//
// The deployment mirrors the paper's layer split: the central controller
// node runs the top layers (UI, SE, Controller) with a dispatch Broker
// whose "resource" is the space fabric, while each smart object runs a
// layer-suppressed node platform (Controller + Broker only). Synthesised
// control scripts are dispatched from the central node to the object
// nodes, and object-node scripts installed at the middleware layer execute
// when asynchronous events (such as objects entering the space) occur.
package smartspace

import (
	"fmt"
	"sync"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	spaceres "github.com/mddsm/mddsm/internal/resources/smartspace"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

// MetamodelName identifies the 2SML metamodel.
const MetamodelName = "2sml"

// Domain is the classifier-domain name.
const Domain = "smartspace"

// LTSName names the synthesis semantics.
const LTSName = "2sml-synthesis"

// Metamodel builds the 2SML metamodel: users, smart-object declarations
// and rules (the ubiquitous applications binding space events to object
// configuration).
func Metamodel() *metamodel.Metamodel {
	m := metamodel.New(MetamodelName)
	m.MustAddEnum(&metamodel.Enum{Name: "SpaceEvent",
		Literals: []string{"objectEntered", "objectLeft"}})
	m.MustAddClass(&metamodel.Class{Name: "User",
		Attributes: []metamodel.Attribute{
			{Name: "name", Kind: metamodel.KindString, Required: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: "ObjectDecl",
		Attributes: []metamodel.Attribute{
			{Name: "kind", Kind: metamodel.KindString, Required: true},
		},
	})
	m.MustAddClass(&metamodel.Class{Name: "Rule",
		Attributes: []metamodel.Attribute{
			{Name: "onEvent", Kind: metamodel.KindEnum, EnumType: "SpaceEvent", Required: true},
			// subject is the object whose event triggers the rule ("*"
			// matches any object).
			{Name: "subject", Kind: metamodel.KindString, Default: "*"},
			{Name: "targetObject", Kind: metamodel.KindString, Required: true},
			{Name: "prop", Kind: metamodel.KindString, Required: true},
			{Name: "value", Kind: metamodel.KindString, Required: true},
		},
	})
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("2sml metamodel: %v", err))
	}
	return m
}

// SynthesisLTS encodes the 2SML synthesis semantics.
func SynthesisLTS() *lts.LTS {
	l := lts.New(LTSName, "run")
	l.On("run", "add-object:ObjectDecl", "", "run",
		lts.CommandTemplate{Op: "watchObject", Target: "object:{id}",
			Args: map[string]string{"kind": "{kind}"}})
	l.On("run", "remove-object:ObjectDecl", "", "run",
		lts.CommandTemplate{Op: "unwatchObject", Target: "object:{id}"})
	l.On("run", "add-object:Rule", "", "run",
		lts.CommandTemplate{Op: "armRule", Target: "rule:{id}",
			Args: map[string]string{
				"onEvent": "{onEvent}", "subject": "{subject}",
				"targetObject": "{targetObject}", "prop": "{prop}", "value": "{value}",
			}})
	l.On("run", "remove-object:Rule", "", "run",
		lts.CommandTemplate{Op: "disarmRule", Target: "rule:{id}"})
	return l
}

// rule is an armed trigger held by the hub.
type rule struct {
	id      string
	onEvent string
	subject string
	target  string
	prop    string
	value   any
}

// Hub is the smart-space fabric: it owns the simulated space, spawns one
// layer-suppressed node platform per smart object, dispatches configuration
// scripts to them, and routes space events — executing armed rules and
// escalating events to the central platform.
type Hub struct {
	mu      sync.Mutex
	space   *spaceres.Space
	nodes   map[string]*runtime.Platform
	rules   map[string]rule
	central func(broker.Event) // escalation to the central platform
}

// NewHub builds the fabric over a fresh space.
func NewHub() *Hub {
	h := &Hub{
		nodes: make(map[string]*runtime.Platform),
		rules: make(map[string]rule),
	}
	h.space = spaceres.NewSpace(h.onSpaceEvent)
	return h
}

// Space returns the underlying simulated space.
func (h *Hub) Space() *spaceres.Space { return h.space }

// NodeCount returns the number of spawned object node platforms.
func (h *Hub) NodeCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.nodes)
}

// ObjectEnters brings an object into the space, spawning its node platform
// on first entry (each smart object runs the two bottom layers).
func (h *Hub) ObjectEnters(id, kind string) error {
	h.mu.Lock()
	if _, ok := h.nodes[id]; !ok {
		node, err := newObjectNode(h.space, id)
		if err != nil {
			h.mu.Unlock()
			return err
		}
		h.nodes[id] = node
	}
	h.mu.Unlock()
	return h.space.Enter(id, kind)
}

// ObjectLeaves removes an object from the space (its node survives for
// re-entry).
func (h *Hub) ObjectLeaves(id string) error { return h.space.Leave(id) }

// onSpaceEvent routes an asynchronous space event: armed rules fire
// configuration scripts on target object nodes, then the event escalates
// to the central platform.
func (h *Hub) onSpaceEvent(e broker.Event) {
	h.mu.Lock()
	matched := make([]rule, 0, 2)
	for _, r := range h.rules {
		if r.onEvent == e.Name && (r.subject == "*" || r.subject == e.Str("object")) {
			matched = append(matched, r)
		}
	}
	h.mu.Unlock()
	for _, r := range matched {
		// Dispatch the synthesised configuration to the target node's
		// middleware layer. Errors are surfaced as fabric events.
		if err := h.dispatchSetProperty(r.target, r.prop, r.value); err != nil && h.central != nil {
			h.central(broker.Event{Name: "ruleFailed", Attrs: map[string]any{
				"rule": r.id, "error": err.Error(),
			}})
		}
	}
	if h.central != nil {
		h.central(broker.Event{Name: e.Name, Attrs: map[string]any{
			"object": e.Str("object"), "prop": e.Str("prop"),
		}})
	}
}

// dispatchSetProperty sends a setProp script to an object node.
func (h *Hub) dispatchSetProperty(objectID, prop string, value any) error {
	h.mu.Lock()
	node, ok := h.nodes[objectID]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("smartspace hub: no node for object %q", objectID)
	}
	s := script.New("cfg-" + objectID).Append(
		script.NewCommand("setProp", "object:"+objectID).
			WithArg("prop", prop).
			WithArg("value", value),
	)
	return node.Execute(s)
}

// Execute implements broker.Adapter for the central platform's dispatch
// broker.
func (h *Hub) Execute(cmd script.Command) error {
	switch cmd.Op {
	case "watchObject", "unwatchObject":
		// Declarations acknowledge interest; the fabric tracks presence
		// through the space itself.
		return nil
	case "armRule":
		h.mu.Lock()
		defer h.mu.Unlock()
		id := cmd.Target
		h.rules[id] = rule{
			id:      id,
			onEvent: cmd.StringArg("onEvent"),
			subject: cmd.StringArg("subject"),
			target:  cmd.StringArg("targetObject"),
			prop:    cmd.StringArg("prop"),
			value:   script.ParseScalar(cmd.StringArg("value")),
		}
		return nil
	case "disarmRule":
		h.mu.Lock()
		defer h.mu.Unlock()
		delete(h.rules, cmd.Target)
		return nil
	case "setProp":
		// Direct configuration dispatched from the central node.
		target := cmd.Target
		if len(target) > 7 && target[:7] == "object:" {
			target = target[7:]
		}
		v, _ := cmd.Arg("value")
		return h.dispatchSetProperty(target, cmd.StringArg("prop"), v)
	default:
		return fmt.Errorf("smartspace hub: unknown op %q", cmd.Op)
	}
}

// spaceAdapter is the object node's broker adapter: it applies property
// changes to the simulated space.
type spaceAdapter struct {
	space *spaceres.Space
}

func (a spaceAdapter) Execute(cmd script.Command) error {
	target := cmd.Target
	if len(target) > 7 && target[:7] == "object:" {
		target = target[7:]
	}
	switch cmd.Op {
	case "applyProperty":
		v, _ := cmd.Arg("value")
		return a.space.SetProperty(target, cmd.StringArg("prop"), v)
	default:
		return fmt.Errorf("smartspace node adapter: unknown op %q", cmd.Op)
	}
}

// newObjectNode builds the layer-suppressed platform running on one smart
// object: Controller + Broker, driven by dispatched scripts.
func newObjectNode(space *spaceres.Space, objectID string) (*runtime.Platform, error) {
	b := mwmeta.NewBuilder("2svm-node-"+objectID, Domain)
	b.ControllerLayer("mw").
		PassthroughAction("setProp", "setProp", "",
			mwmeta.StepSpec{Op: "applyProperty", Target: "{target}"}).
		Done().
		BrokerLayer("broker").
		PassthroughAction("apply", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "space")
	return runtime.Build(b.Model(), runtime.Deps{
		Adapters: map[string]broker.Adapter{"space": spaceAdapter{space: space}},
	}, runtime.Config{})
}

// CentralModel authors the middleware model of the central controller node
// (the top three layers plus the dispatch broker fronting the fabric).
func CentralModel() *metamodel.Model {
	b := mwmeta.NewBuilder("2SVM", Domain)
	b.UILayer("SUI")
	b.SynthesisLayer("SSE", LTSName)
	b.ControllerLayer("SMW").
		PassthroughAction("fabric", "watchObject,unwatchObject,armRule,disarmRule,setProp", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Done().
		BrokerLayer("SDB").
		PassthroughAction("dispatch", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "hub")
	return b.Model()
}

// SSVM is the smart-space virtual machine: the central platform plus the
// fabric of object nodes.
type SSVM struct {
	Platform *runtime.Platform
	Hub      *Hub
}

// New builds a 2SVM deployment configured by cfg: the same assembly the
// registered "smartspace" bundle runs.
func New(cfg domains.Config) (*SSVM, error) {
	def, err := shared()
	if err != nil {
		return nil, fmt.Errorf("2svm: %w", err)
	}
	vm, b := assemble(cfg)
	p, err := core.Build(def, b, cfg.Runtime)
	if err != nil {
		return nil, fmt.Errorf("2svm: %w", err)
	}
	vm.attach(p, false)
	return vm, nil
}

// assemble wires the 2SVM shell (a fabric over a fresh space) and the
// bindings of its central platform, which New and the bundle share.
func assemble(cfg domains.Config) (*SSVM, core.Bindings) {
	hub := NewHub()
	return &SSVM{Hub: hub}, core.Bindings{
		Adapters:   map[string]broker.Adapter{"hub": hub},
		Obs:        cfg.Obs,
		Injector:   cfg.Injector,
		Resilience: cfg.Resilience,
	}
}

// attach binds a built or restored central platform into the shell: the
// fabric escalates space events to it.
func (vm *SSVM) attach(p *runtime.Platform, _ bool) {
	vm.Platform = p
	vm.Hub.central = func(e broker.Event) { _ = p.DeliverEvent(e) }
}
