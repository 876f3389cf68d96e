package mwmeta

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/mddsm/mddsm/internal/metamodel"
)

// Builder authors middleware models in code with a fluent API. It is the
// programmatic counterpart of a graphical middleware-model editor: every
// call creates objects of the middleware metamodel, and Validate checks
// conformance before the model is handed to the runtime factory.
type Builder struct {
	model    *metamodel.Model
	platform *metamodel.Object
	seq      int
}

// NewBuilder starts a middleware model for a platform.
func NewBuilder(platformName, domain string) *Builder {
	b := &Builder{model: metamodel.NewModel(Name)}
	b.platform = b.model.NewObject("platform", ClassPlatform).
		SetAttr("name", platformName).
		SetAttr("domain", domain)
	return b
}

// id mints a unique object ID with a readable prefix.
func (b *Builder) id(prefix string) string {
	b.seq++
	return prefix + "-" + strconv.Itoa(b.seq)
}

// Model returns the underlying middleware model.
func (b *Builder) Model() *metamodel.Model { return b.model }

// Validate checks the authored model against the middleware metamodel. It
// validates a copy, so the authored model is left as built (validation
// normalises values and applies defaults).
func (b *Builder) Validate() error {
	if err := b.model.Clone().Validate(MM()); err != nil {
		return fmt.Errorf("middleware model: %w", err)
	}
	return nil
}

// UILayer adds a UI layer.
func (b *Builder) UILayer(name string) *Builder {
	o := b.model.NewObject(b.id("ui"), ClassUILayer).SetAttr("name", name)
	b.platform.AddRef("layers", o.ID)
	return b
}

// SynthesisLayer adds a Synthesis layer bound to the named DSK LTS.
func (b *Builder) SynthesisLayer(name, ltsName string) *Builder {
	o := b.model.NewObject(b.id("synth"), ClassSynthesisLayer).
		SetAttr("name", name).
		SetAttr("ltsName", ltsName)
	b.platform.AddRef("layers", o.ID)
	return b
}

// ControllerLayer adds a Controller layer and returns its builder.
func (b *Builder) ControllerLayer(name string) *ControllerBuilder {
	o := b.model.NewObject(b.id("ctl"), ClassControllerLayer).SetAttr("name", name)
	b.platform.AddRef("layers", o.ID)
	return &ControllerBuilder{b: b, layer: o}
}

// BrokerLayer adds a Broker layer and returns its builder.
func (b *Builder) BrokerLayer(name string) *BrokerBuilder {
	o := b.model.NewObject(b.id("brk"), ClassBrokerLayer).SetAttr("name", name)
	b.platform.AddRef("layers", o.ID)
	return &BrokerBuilder{b: b, layer: o}
}

// addSteps appends ordered Step objects under owner's reference. Arg
// objects are minted in sorted key order so the same spec always builds
// the same model — snapshots of identical platforms must be comparable
// byte-wise, never hostage to map iteration order.
func (b *Builder) addSteps(owner *metamodel.Object, ref string, steps []StepSpec) {
	for i, s := range steps {
		st := b.model.NewObject(b.id("step"), ClassStep).
			SetAttr("op", s.Op).
			SetAttr("target", s.Target).
			SetAttr("order", i)
		for _, k := range sortedKeys(s.Args) {
			arg := b.model.NewObject(b.id("arg"), ClassArg).
				SetAttr("key", k).
				SetAttr("value", s.Args[k])
			st.AddRef("args", arg.ID)
		}
		owner.AddRef(ref, st.ID)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// StepSpec declares one step template when authoring actions and plans.
type StepSpec struct {
	Op     string
	Target string
	Args   map[string]string
}

// PolicySpec declares one policy when authoring layers. Effects alternate
// key, value; values use the command-argument scalar syntax.
type PolicySpec struct {
	Name      string
	Priority  int
	Condition string
	Effects   map[string]string
}

// ControllerBuilder authors a Controller layer's configuration objects.
type ControllerBuilder struct {
	b     *Builder
	layer *metamodel.Object
}

// Done returns to the platform builder.
func (cb *ControllerBuilder) Done() *Builder { return cb.b }

// Options sets the layer's generation options.
func (cb *ControllerBuilder) Options(maxDepth int, cacheEnabled bool) *ControllerBuilder {
	cb.layer.SetAttr("maxDepth", maxDepth).SetAttr("cacheEnabled", cacheEnabled)
	return cb
}

// Action adds a predefined (Case 1) action. ops is comma-separated; guard
// may be empty.
func (cb *ControllerBuilder) Action(name, ops, guard string, steps ...StepSpec) *ControllerBuilder {
	o := cb.b.model.NewObject(cb.b.id("act"), ClassAction).
		SetAttr("name", name).
		SetAttr("ops", ops)
	if guard != "" {
		o.SetAttr("guard", guard)
	}
	cb.b.addSteps(o, "steps", steps)
	cb.layer.AddRef("actions", o.ID)
	return cb
}

// EventAction adds an event handler entry. scriptName selects an installed
// script from the DSK bundle and may be empty.
func (cb *ControllerBuilder) EventAction(name, event, guard string, forward bool, scriptName string, steps ...StepSpec) *ControllerBuilder {
	o := cb.b.model.NewObject(cb.b.id("evact"), ClassEventAction).
		SetAttr("name", name).
		SetAttr("event", event).
		SetAttr("forward", forward)
	if guard != "" {
		o.SetAttr("guard", guard)
	}
	if scriptName != "" {
		o.SetAttr("scriptName", scriptName)
	}
	cb.b.addSteps(o, "steps", steps)
	cb.layer.AddRef("eventActions", o.ID)
	return cb
}

// PassthroughAction is Action with forwardArgs set: the triggering
// command's arguments are copied onto every expanded step call.
func (cb *ControllerBuilder) PassthroughAction(name, ops, guard string, steps ...StepSpec) *ControllerBuilder {
	cb.Action(name, ops, guard, steps...)
	last := cb.layer.Refs("actions")
	cb.b.model.Get(last[len(last)-1]).SetAttr("forwardArgs", true)
	return cb
}

// Class maps a command operation to its goal DSC (Case 2 metadata).
func (cb *ControllerBuilder) Class(op, goalDSC string) *ControllerBuilder {
	o := cb.b.model.NewObject(cb.b.id("class"), ClassCommandClass).
		SetAttr("op", op).
		SetAttr("goalDsc", goalDSC)
	cb.layer.AddRef("classes", o.ID)
	return cb
}

// Policy adds a classification/selection policy to the layer.
func (cb *ControllerBuilder) Policy(p PolicySpec) *ControllerBuilder {
	cb.layer.AddRef("policies", addPolicy(cb.b, p).ID)
	return cb
}

// BrokerBuilder authors a Broker layer's configuration objects.
type BrokerBuilder struct {
	b     *Builder
	layer *metamodel.Object
}

// Done returns to the platform builder.
func (bb *BrokerBuilder) Done() *Builder { return bb.b }

// Action adds a call-handling action realised by resource steps.
func (bb *BrokerBuilder) Action(name, ops, guard string, steps ...StepSpec) *BrokerBuilder {
	o := bb.b.model.NewObject(bb.b.id("act"), ClassAction).
		SetAttr("name", name).
		SetAttr("ops", ops)
	if guard != "" {
		o.SetAttr("guard", guard)
	}
	bb.b.addSteps(o, "steps", steps)
	bb.layer.AddRef("actions", o.ID)
	return bb
}

// PassthroughAction is Action with forwardArgs set: the triggering
// call's arguments are copied onto every expanded resource command.
func (bb *BrokerBuilder) PassthroughAction(name, ops, guard string, steps ...StepSpec) *BrokerBuilder {
	bb.Action(name, ops, guard, steps...)
	last := bb.layer.Refs("actions")
	bb.b.model.Get(last[len(last)-1]).SetAttr("forwardArgs", true)
	return bb
}

// EventAction adds a resource-event handler entry.
func (bb *BrokerBuilder) EventAction(name, event, guard string, forward bool, steps ...StepSpec) *BrokerBuilder {
	o := bb.b.model.NewObject(bb.b.id("evact"), ClassEventAction).
		SetAttr("name", name).
		SetAttr("event", event).
		SetAttr("forward", forward)
	if guard != "" {
		o.SetAttr("guard", guard)
	}
	bb.b.addSteps(o, "steps", steps)
	bb.layer.AddRef("eventActions", o.ID)
	return bb
}

// Policy adds a policy to the layer.
func (bb *BrokerBuilder) Policy(p PolicySpec) *BrokerBuilder {
	bb.layer.AddRef("policies", addPolicy(bb.b, p).ID)
	return bb
}

// Symptom declares an autonomic symptom.
func (bb *BrokerBuilder) Symptom(name, condition string) *BrokerBuilder {
	o := bb.b.model.NewObject(bb.b.id("sym"), ClassSymptom).
		SetAttr("name", name).
		SetAttr("condition", condition)
	bb.layer.AddRef("symptoms", o.ID)
	return bb
}

// ChangePlan declares the change plan executed when a symptom fires.
func (bb *BrokerBuilder) ChangePlan(symptom string, steps ...StepSpec) *BrokerBuilder {
	o := bb.b.model.NewObject(bb.b.id("plan"), ClassChangePlan).
		SetAttr("symptom", symptom)
	bb.b.addSteps(o, "steps", steps)
	bb.layer.AddRef("changePlans", o.ID)
	return bb
}

// Bind routes a resource operation (or "*") to a named adapter from the
// DSK bundle.
func (bb *BrokerBuilder) Bind(op, adapter string) *BrokerBuilder {
	o := bb.b.model.NewObject(bb.b.id("bind"), ClassResourceBinding).
		SetAttr("op", op).
		SetAttr("adapter", adapter)
	bb.layer.AddRef("bindings", o.ID)
	return bb
}

func addPolicy(b *Builder, p PolicySpec) *metamodel.Object {
	o := b.model.NewObject(b.id("pol"), ClassPolicy).
		SetAttr("name", p.Name).
		SetAttr("priority", p.Priority).
		SetAttr("condition", p.Condition)
	for _, k := range sortedKeys(p.Effects) {
		eff := b.model.NewObject(b.id("eff"), ClassEffect).
			SetAttr("key", k).
			SetAttr("value", p.Effects[k])
		o.AddRef("effects", eff.ID)
	}
	return o
}
