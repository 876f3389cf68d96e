// The component factory's compile step. A middleware model is checked
// against the middleware metamodel and compiled into a Plan once; every
// platform instantiated from the plan shares it, so a platform build —
// and a restore, whose snapshot carries the plan — walks and parses
// nothing.

package runtime

import (
	"fmt"
	"sort"
	"strings"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/controller"
	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/policy"
	"github.com/mddsm/mddsm/internal/script"
)

// Plan is a middleware model in compiled form: the model itself, which
// conforms to the middleware metamodel and is never modified, and the
// layer configuration the component factory derives from it — the layer
// stack, op lists, ordered step templates, parsed guards, symptom and
// policy conditions, command classes and layer parameters. A Plan is
// immutable, so any number of platforms share one. Instantiate binds the
// plan's adapter, LTS, installed-script and goal-DSC names to a
// platform's deps and creates its layers.
type Plan struct {
	model        *metamodel.Model
	name, domain string
	broker       brokerPlan
	controller   *controllerPlan // nil when the model suppresses the layer
	synthesis    *synthesisPlan  // nil when suppressed
	ui           *layerPlan      // nil when suppressed
}

// layerPlan identifies a layer object: its ID, for error messages, and
// its name.
type layerPlan struct{ id, name string }

type brokerPlan struct {
	name         string
	bindings     []bindingPlan
	actions      []*broker.Action
	eventActions []*broker.EventAction
	symptoms     []broker.Symptom
	changePlans  []broker.ChangePlan
}

// bindingPlan routes a resource op to the adapter of that name.
type bindingPlan struct{ id, op, adapter string }

type controllerPlan struct {
	name         string
	maxDepth     int
	cacheEnabled bool
	actions      []*controller.Action
	// eventActions carry no Script: scripts names the installed script
	// of each event action that runs one, resolved per platform.
	eventActions []*controller.EventAction
	scripts      []scriptRef
	classes      []classPlan
	policies     []policy.Policy
}

// scriptRef names the installed script of eventActions[at].
type scriptRef struct {
	at       int
	id, name string
}

// classPlan maps a command op to the goal DSC realising it in Case 2.
type classPlan struct{ id, op, goal string }

type synthesisPlan struct {
	layerPlan
	lts string
}

// Compile checks a middleware model against the middleware metamodel with
// one Conform walk, which never modifies the model, and compiles it. The
// plan holds the conforming model: the given one when it is already in
// validated form, otherwise a normalised copy. The caller must not modify
// the model afterwards (Build compiles a private copy for callers that
// do).
func Compile(model *metamodel.Model) (*Plan, error) {
	mw, err := model.Conform(mwmeta.MM())
	if err != nil {
		return nil, fmt.Errorf("runtime: middleware model does not conform: %w", err)
	}
	return compile(mw)
}

// Model returns the middleware model the plan was compiled from. It is
// shared and must not be modified.
func (pl *Plan) Model() *metamodel.Model { return pl.model }

// compile derives the plan of a middleware model that conforms to the
// middleware metamodel, checking that its layers form a bottom-anchored
// stack and that every guard and condition parses.
func compile(mw *metamodel.Model) (*Plan, error) {
	platforms := mw.ObjectsOf(mwmeta.ClassPlatform)
	if len(platforms) != 1 {
		return nil, fmt.Errorf("runtime: middleware model must declare exactly one Platform, got %d", len(platforms))
	}
	root := platforms[0]
	pl := &Plan{model: mw, name: root.StringAttr("name"), domain: root.StringAttr("domain")}

	var uiObj, synthObj, ctlObj, brkObj *metamodel.Object
	for _, layer := range mw.Resolve(root, "layers") {
		switch layer.Class {
		case mwmeta.ClassUILayer:
			uiObj = layer
		case mwmeta.ClassSynthesisLayer:
			synthObj = layer
		case mwmeta.ClassControllerLayer:
			ctlObj = layer
		case mwmeta.ClassBrokerLayer:
			brkObj = layer
		default:
			return nil, fmt.Errorf("runtime: unknown layer class %q", layer.Class)
		}
	}

	// Consistency: layers must form a bottom-anchored stack.
	if ctlObj != nil && brkObj == nil {
		return nil, fmt.Errorf("runtime: a ControllerLayer requires a BrokerLayer")
	}
	if synthObj != nil && ctlObj == nil {
		return nil, fmt.Errorf("runtime: a SynthesisLayer requires a ControllerLayer")
	}
	if uiObj != nil && synthObj == nil {
		return nil, fmt.Errorf("runtime: a UILayer requires a SynthesisLayer")
	}
	if brkObj == nil {
		return nil, fmt.Errorf("runtime: middleware model declares no BrokerLayer")
	}

	var err error
	if pl.broker, err = compileBroker(mw, brkObj); err != nil {
		return nil, err
	}
	if ctlObj != nil {
		if pl.controller, err = compileController(mw, ctlObj); err != nil {
			return nil, err
		}
	}
	if synthObj != nil {
		pl.synthesis = &synthesisPlan{
			layerPlan: layerPlan{id: synthObj.ID, name: synthObj.StringAttr("name")},
			lts:       synthObj.StringAttr("ltsName"),
		}
	}
	if uiObj != nil {
		pl.ui = &layerPlan{id: uiObj.ID, name: uiObj.StringAttr("name")}
	}
	return pl, nil
}

func compileBroker(mw *metamodel.Model, obj *metamodel.Object) (brokerPlan, error) {
	bp := brokerPlan{name: obj.StringAttr("name")}
	for _, bind := range mw.Resolve(obj, "bindings") {
		bp.bindings = append(bp.bindings, bindingPlan{
			id: bind.ID, op: bind.StringAttr("op"), adapter: bind.StringAttr("adapter"),
		})
	}
	for _, actObj := range mw.Resolve(obj, "actions") {
		a, err := compileAction(mw, actObj)
		if err != nil {
			return bp, err
		}
		bp.actions = append(bp.actions, &broker.Action{
			Name: a.name, Ops: a.ops, Guard: a.guard, Steps: a.steps,
			ForwardArgs: a.forwardArgs,
		})
	}
	for _, evObj := range mw.Resolve(obj, "eventActions") {
		ea, err := compileEventAction(mw, evObj)
		if err != nil {
			return bp, err
		}
		if ea.script != "" {
			return bp, fmt.Errorf("runtime: event action %s: installed scripts are a Controller-layer feature", evObj.ID)
		}
		bp.eventActions = append(bp.eventActions, &broker.EventAction{
			Name: ea.name, Event: ea.event, Guard: ea.guard,
			Steps: ea.steps, Forward: ea.forward,
		})
	}
	for _, symObj := range mw.Resolve(obj, "symptoms") {
		cond, err := expr.Parse(symObj.StringAttr("condition"))
		if err != nil {
			return bp, fmt.Errorf("runtime: symptom %s: %w", symObj.ID, err)
		}
		bp.symptoms = append(bp.symptoms, broker.Symptom{
			Name: symObj.StringAttr("name"), Condition: cond,
		})
	}
	for _, planObj := range mw.Resolve(obj, "changePlans") {
		bp.changePlans = append(bp.changePlans, broker.ChangePlan{
			Symptom: planObj.StringAttr("symptom"), Steps: compileSteps(mw, planObj),
		})
	}
	return bp, nil
}

func compileController(mw *metamodel.Model, obj *metamodel.Object) (*controllerPlan, error) {
	cp := &controllerPlan{
		name:         obj.StringAttr("name"),
		maxDepth:     int(obj.IntAttr("maxDepth")),
		cacheEnabled: obj.BoolAttr("cacheEnabled"),
	}
	for _, actObj := range mw.Resolve(obj, "actions") {
		a, err := compileAction(mw, actObj)
		if err != nil {
			return nil, err
		}
		cp.actions = append(cp.actions, &controller.Action{
			Name: a.name, Ops: a.ops, Guard: a.guard, Steps: a.steps,
			ForwardArgs: a.forwardArgs,
		})
	}
	for _, evObj := range mw.Resolve(obj, "eventActions") {
		ea, err := compileEventAction(mw, evObj)
		if err != nil {
			return nil, err
		}
		if ea.script != "" {
			cp.scripts = append(cp.scripts, scriptRef{at: len(cp.eventActions), id: evObj.ID, name: ea.script})
		}
		cp.eventActions = append(cp.eventActions, &controller.EventAction{
			Name: ea.name, Event: ea.event, Guard: ea.guard,
			Steps: ea.steps, Forward: ea.forward,
		})
	}
	for _, clObj := range mw.Resolve(obj, "classes") {
		cp.classes = append(cp.classes, classPlan{
			id: clObj.ID, op: clObj.StringAttr("op"), goal: clObj.StringAttr("goalDsc"),
		})
	}
	pols, err := compilePolicies(mw, obj)
	if err != nil {
		return nil, err
	}
	cp.policies = pols
	return cp, nil
}

// actionParts is the factory's intermediate action representation.
type actionParts struct {
	name        string
	ops         []string
	guard       expr.Node
	steps       []script.Template
	forwardArgs bool
}

type eventActionParts struct {
	name    string
	event   string
	guard   expr.Node
	steps   []script.Template
	script  string
	forward bool
}

func compileAction(mw *metamodel.Model, obj *metamodel.Object) (actionParts, error) {
	a := actionParts{name: obj.StringAttr("name"), forwardArgs: obj.BoolAttr("forwardArgs")}
	a.ops = splitOps(obj.StringAttr("ops"))
	if g := obj.StringAttr("guard"); g != "" {
		node, err := expr.Parse(g)
		if err != nil {
			return a, fmt.Errorf("runtime: action %s: guard: %w", obj.ID, err)
		}
		a.guard = node
	}
	a.steps = compileSteps(mw, obj)
	return a, nil
}

func compileEventAction(mw *metamodel.Model, obj *metamodel.Object) (eventActionParts, error) {
	ea := eventActionParts{
		name:    obj.StringAttr("name"),
		event:   obj.StringAttr("event"),
		script:  obj.StringAttr("scriptName"),
		forward: obj.BoolAttr("forward"),
	}
	if g := obj.StringAttr("guard"); g != "" {
		node, err := expr.Parse(g)
		if err != nil {
			return ea, fmt.Errorf("runtime: event action %s: guard: %w", obj.ID, err)
		}
		ea.guard = node
	}
	ea.steps = compileSteps(mw, obj)
	return ea, nil
}

// compileSteps resolves a steps reference into templates ordered by the
// Step.order attribute.
func compileSteps(mw *metamodel.Model, owner *metamodel.Object) []script.Template {
	stepObjs := mw.Resolve(owner, "steps")
	sort.SliceStable(stepObjs, func(i, j int) bool {
		return stepObjs[i].IntAttr("order") < stepObjs[j].IntAttr("order")
	})
	var out []script.Template
	for _, st := range stepObjs {
		tpl := script.Template{
			Op:     st.StringAttr("op"),
			Target: st.StringAttr("target"),
		}
		args := mw.Resolve(st, "args")
		if len(args) > 0 {
			tpl.Args = make(map[string]string, len(args))
			for _, arg := range args {
				tpl.Args[arg.StringAttr("key")] = arg.StringAttr("value")
			}
		}
		out = append(out, tpl)
	}
	return out
}

func compilePolicies(mw *metamodel.Model, owner *metamodel.Object) ([]policy.Policy, error) {
	var out []policy.Policy
	for _, polObj := range mw.Resolve(owner, "policies") {
		cond, err := expr.Parse(polObj.StringAttr("condition"))
		if err != nil {
			return nil, fmt.Errorf("runtime: policy %s: %w", polObj.ID, err)
		}
		p := policy.Policy{
			Name:      polObj.StringAttr("name"),
			Priority:  int(polObj.IntAttr("priority")),
			Condition: cond,
		}
		for _, effObj := range mw.Resolve(polObj, "effects") {
			p.Effects = append(p.Effects, policy.Effect{
				Key:   effObj.StringAttr("key"),
				Value: script.ParseScalar(effObj.StringAttr("value")),
			})
		}
		out = append(out, p)
	}
	return out, nil
}

// splitOps splits a model's comma-separated ops attribute, trimming the
// whitespace authors naturally write ("open, close") and dropping empty
// segments — an untrimmed " close" would never match a dispatched op.
func splitOps(ops string) []string {
	var out []string
	for _, seg := range strings.Split(ops, ",") {
		if s := strings.TrimSpace(seg); s != "" {
			out = append(out, s)
		}
	}
	return out
}
