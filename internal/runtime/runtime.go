// Package runtime is the generic, domain-independent runtime environment of
// MD-DSM (paper §V-A): it loads middleware models and "generates and
// executes the appropriate middleware components defined in the model". The
// component factory instantiates each layer from its model metadata — the
// Go equivalent of the paper's code templates parameterised with model
// metadata — wires the layers together, and manages the platform's event
// pump (the threads that run the middleware components).
//
// Layer suppression is supported as in the paper's §IV platforms: a
// middleware model may declare any bottom-anchored subset of the four
// layers (e.g. Controller+Broker for a 2SVM smart object, or the three
// bottom layers for the CSVM provider), and the factory wires exactly what
// is present.
package runtime

import (
	"fmt"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/controller"
	"github.com/mddsm/mddsm/internal/eu"
	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/intent"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/policy"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/simtime"
	"github.com/mddsm/mddsm/internal/synthesis"
	"github.com/mddsm/mddsm/internal/ui"
)

// Deps is the domain-specific knowledge (DSK) bundle the factory binds to a
// middleware model: the application DSML, the synthesis semantics, resource
// adapters, the procedure repository and installed scripts.
type Deps struct {
	// DSML is the application modeling language (required when the model
	// declares a Synthesis or UI layer).
	DSML *metamodel.Metamodel
	// LTSes holds synthesis semantics by name; a SynthesisLayer's ltsName
	// selects one.
	LTSes map[string]*lts.LTS
	// Adapters holds resource adapters by name for BrokerLayer bindings.
	Adapters map[string]broker.Adapter
	// Repository backs Case-2 intent generation (optional).
	Repository *registry.Repository
	// Scripts holds installed scripts by name for EventAction.scriptName.
	Scripts map[string]*script.Script
	// Clock charges virtual time (optional).
	Clock simtime.Clock
	// Tracer and Metrics observe every layer of the platform plus the
	// event pump and monitor loop. Both may be nil (the default): the
	// disabled observer costs the hot paths only a nil check.
	Tracer  *obs.Tracer
	Metrics *obs.Metrics
	// Injector evaluates the engine's fault points in every layer it is
	// threaded into (Controller dispatch, Broker steps and events, the
	// event pump and the monitor probe). Nil — the default — disables
	// injection; the fault points cost a nil check.
	Injector *fault.Injector
	// Resilience configures the Broker layer's step retry, timeout and
	// per-operation circuit breaking. The zero value disables all three.
	Resilience fault.Resilience
}

// Fault-point names evaluated by the platform's injector, if one is
// configured.
const (
	// SitePumpPost fires on event submission to the pump; a fired fault
	// rejects the event at intake (counted in pump.events.rejected).
	SitePumpPost = "pump.post"
	// SiteMonitorProbe fires before each monitor probe; a fired fault
	// skips the probe and counts a monitor.probe.failure.
	SiteMonitorProbe = "monitor.probe"
)

// Platform is a live middleware platform instantiated from a middleware
// model. Layers that the model suppressed are nil.
type Platform struct {
	Name   string
	Domain string

	UI         *ui.UI
	Synthesis  *synthesis.Synthesis
	Controller *controller.Controller
	Broker     *broker.Broker

	// external observes events that reach the top of the layer stack:
	// when no Synthesis layer exists it is the sole consumer, otherwise it
	// observes alongside the Synthesis layer (interoperability bridges
	// attach here).
	extMu    sync.Mutex
	external func(broker.Event)

	tracer   *obs.Tracer
	metrics  *obs.Metrics
	injector *fault.Injector

	// cfg is the platform's resolved configuration (the Config it was
	// built with, defaults applied).
	cfg Config

	// model is the validated middleware model the platform was built from,
	// retained for checkpointing (models@runtime: the platform *is* this
	// model). It is never modified, so snapshots share it.
	model *metamodel.Model

	mPosted       *obs.Counter
	mDropped      *obs.Counter
	mRejected     *obs.Counter
	mDelivered    *obs.Counter
	mDeliverFail  *obs.Counter
	mDeadLettered *obs.Counter
	mRedelivered  *obs.Counter
	mRequeued     *obs.Counter
	mPanics       *obs.Counter
	gDepth        *obs.Gauge
	gDLQDepth     *obs.Gauge
	hDeliver      *obs.Histogram

	dlq *dlq

	pumpMu  sync.Mutex
	started bool
	pump    *pump
	monStop chan struct{}
	monDone chan struct{}
}

// SetExternalEvents installs (or replaces) the external event observer
// after construction; bridges use this to attach to running platforms.
func (p *Platform) SetExternalEvents(fn func(broker.Event)) {
	p.extMu.Lock()
	defer p.extMu.Unlock()
	p.external = fn
}

func (p *Platform) externalSink() func(broker.Event) {
	p.extMu.Lock()
	defer p.extMu.Unlock()
	return p.external
}

// Build validates the middleware model against the middleware metamodel,
// checks cross-layer consistency, and instantiates the platform. The
// validation runs on a copy (it applies defaults), which the platform
// keeps; the caller's model stays intact and may be edited afterwards.
func Build(model *metamodel.Model, deps Deps, cfg Config) (*Platform, error) {
	work := model.Clone()
	if err := work.Validate(mwmeta.MM()); err != nil {
		return nil, fmt.Errorf("runtime: middleware model does not conform: %w", err)
	}
	return build(work, deps, cfg)
}

// build instantiates the platform from a middleware model in validated
// form, which the platform keeps and never modifies. An invalid cfg fails
// the build rather than being clamped.
func build(work *metamodel.Model, deps Deps, cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	p := &Platform{
		tracer:   deps.Tracer,
		metrics:  deps.Metrics,
		injector: deps.Injector,
		cfg:      cfg.withDefaults(),
	}
	platforms := work.ObjectsOf(mwmeta.ClassPlatform)
	if len(platforms) != 1 {
		return nil, fmt.Errorf("runtime: middleware model must declare exactly one Platform, got %d", len(platforms))
	}
	root := platforms[0]
	p.Name = root.StringAttr("name")
	p.Domain = root.StringAttr("domain")
	p.model = work
	p.mPosted = p.metrics.Counter(obs.MEventsPosted)
	p.mDropped = p.metrics.Counter(obs.MEventsDropped)
	p.mRejected = p.metrics.Counter(obs.MEventsRejected)
	p.mDelivered = p.metrics.Counter(obs.MEventsDelivered)
	p.mDeliverFail = p.metrics.Counter(obs.MDeliverFailures)
	p.mDeadLettered = p.metrics.Counter(obs.MEventsDeadLettered)
	p.mRedelivered = p.metrics.Counter(obs.MDLQRedelivered)
	p.mRequeued = p.metrics.Counter(obs.MDLQRequeued)
	p.mPanics = p.metrics.Counter(obs.MPanicsRecovered)
	p.gDepth = p.metrics.Gauge(obs.MQueueDepth)
	p.gDLQDepth = p.metrics.Gauge(obs.MDLQDepth)
	p.hDeliver = p.metrics.Histogram(obs.HPumpDeliver)
	p.dlq = newDLQ(p.cfg.dlqCapacity())

	var (
		uiObj, synthObj, ctlObj, brkObj *metamodel.Object
	)
	for _, layer := range work.Resolve(root, "layers") {
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

	if err := p.buildBroker(work, brkObj, deps); err != nil {
		return nil, err
	}
	if ctlObj != nil {
		if err := p.buildController(work, ctlObj, deps); err != nil {
			return nil, err
		}
	}
	if synthObj != nil {
		if err := p.buildSynthesis(synthObj, deps); err != nil {
			return nil, err
		}
	}
	if uiObj != nil {
		if err := p.buildUI(uiObj, deps); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// routeBrokerEvent forwards Broker events to the Controller, or to the
// external sink when the platform has none. The Controller's failure is
// the Broker's notify result, so it fails the delivery in flight and the
// event dead-letters instead of counting delivered.
func (p *Platform) routeBrokerEvent(ev broker.Event) error {
	if p.Controller != nil {
		return p.Controller.OnEvent(ev)
	}
	if ext := p.externalSink(); ext != nil {
		ext(ev)
	}
	return nil
}

// routeControllerEvent forwards Controller events to the Synthesis layer
// and then to the external observer (which is the sole consumer when the
// platform has no Synthesis layer). It returns the Synthesis layer's
// failure.
func (p *Platform) routeControllerEvent(ev broker.Event) error {
	var err error
	if p.Synthesis != nil {
		err = p.Synthesis.OnEvent(ev)
	}
	if ext := p.externalSink(); ext != nil {
		ext(ev)
	}
	return err
}

func (p *Platform) buildBroker(model *metamodel.Model, obj *metamodel.Object, deps Deps) error {
	cfg := broker.Config{
		Name:       obj.StringAttr("name"),
		Tracer:     p.tracer,
		Metrics:    p.metrics,
		Injector:   deps.Injector,
		Resilience: deps.Resilience,
	}
	rm := broker.NewResourceManager()

	for _, bind := range model.Resolve(obj, "bindings") {
		name := bind.StringAttr("adapter")
		adapter, ok := deps.Adapters[name]
		if !ok {
			return fmt.Errorf("runtime: broker binding %s: unknown adapter %q", bind.ID, name)
		}
		rm.Register(bind.StringAttr("op"), adapter)
	}

	for _, actObj := range model.Resolve(obj, "actions") {
		a, err := buildAction(model, actObj)
		if err != nil {
			return err
		}
		cfg.Actions = append(cfg.Actions, &broker.Action{
			Name: a.name, Ops: a.ops, Guard: a.guard, Steps: a.steps,
			ForwardArgs: a.forwardArgs,
		})
	}
	for _, evObj := range model.Resolve(obj, "eventActions") {
		ea, err := buildEventAction(model, evObj, deps, false)
		if err != nil {
			return err
		}
		cfg.EventActions = append(cfg.EventActions, &broker.EventAction{
			Name: ea.name, Event: ea.event, Guard: ea.guard,
			Steps: ea.steps, Forward: ea.forward,
		})
	}
	for _, symObj := range model.Resolve(obj, "symptoms") {
		cond, err := expr.Parse(symObj.StringAttr("condition"))
		if err != nil {
			return fmt.Errorf("runtime: symptom %s: %w", symObj.ID, err)
		}
		cfg.Symptoms = append(cfg.Symptoms, broker.Symptom{
			Name: symObj.StringAttr("name"), Condition: cond,
		})
	}
	for _, planObj := range model.Resolve(obj, "changePlans") {
		steps, err := buildSteps(model, planObj)
		if err != nil {
			return fmt.Errorf("runtime: change plan %s: %w", planObj.ID, err)
		}
		cfg.ChangePlans = append(cfg.ChangePlans, broker.ChangePlan{
			Symptom: planObj.StringAttr("symptom"), Steps: steps,
		})
	}

	p.Broker = broker.New(cfg, rm, p.routeBrokerEvent)
	return nil
}

func (p *Platform) buildController(model *metamodel.Model, obj *metamodel.Object, deps Deps) error {
	cfg := controller.Config{
		Name:       obj.StringAttr("name"),
		Repository: deps.Repository,
		Generator: intent.Options{
			MaxDepth:     int(obj.IntAttr("maxDepth")),
			DisableCache: !obj.BoolAttr("cacheEnabled"),
		},
		Machine:  eu.Limits{MaxDepth: int(obj.IntAttr("maxDepth"))},
		Clock:    deps.Clock,
		Tracer:   p.tracer,
		Metrics:  p.metrics,
		Injector: deps.Injector,
	}
	for _, actObj := range model.Resolve(obj, "actions") {
		a, err := buildAction(model, actObj)
		if err != nil {
			return err
		}
		cfg.Actions = append(cfg.Actions, &controller.Action{
			Name: a.name, Ops: a.ops, Guard: a.guard, Steps: a.steps,
			ForwardArgs: a.forwardArgs,
		})
	}
	for _, evObj := range model.Resolve(obj, "eventActions") {
		ea, err := buildEventAction(model, evObj, deps, true)
		if err != nil {
			return err
		}
		cfg.EventActions = append(cfg.EventActions, &controller.EventAction{
			Name: ea.name, Event: ea.event, Guard: ea.guard,
			Steps: ea.steps, Script: ea.script, Forward: ea.forward,
		})
	}
	for _, clObj := range model.Resolve(obj, "classes") {
		goal := clObj.StringAttr("goalDsc")
		if deps.Repository == nil {
			return fmt.Errorf("runtime: command class %s: goal DSC %q declared but no procedure repository in DSK", clObj.ID, goal)
		}
		if deps.Repository.Taxonomy().Get(goal) == nil {
			return fmt.Errorf("runtime: command class %s: goal DSC %q not in taxonomy", clObj.ID, goal)
		}
		cfg.Classes = append(cfg.Classes, controller.CommandClass{
			Op: clObj.StringAttr("op"), GoalDSC: goal,
		})
	}
	pols, err := buildPolicies(model, obj)
	if err != nil {
		return err
	}
	cfg.Policies = pols

	p.Controller = controller.New(cfg, p.Broker, p.routeControllerEvent)
	return nil
}

func (p *Platform) buildSynthesis(obj *metamodel.Object, deps Deps) error {
	if deps.DSML == nil {
		return fmt.Errorf("runtime: synthesis layer %s: no DSML in DSK", obj.ID)
	}
	ltsName := obj.StringAttr("ltsName")
	def, ok := deps.LTSes[ltsName]
	if !ok {
		return fmt.Errorf("runtime: synthesis layer %s: unknown LTS %q", obj.ID, ltsName)
	}
	s, err := synthesis.New(
		synthesis.Config{
			Name: obj.StringAttr("name"), DSML: deps.DSML, LTS: def,
			Tracer: p.tracer, Metrics: p.metrics,
			Delta: p.cfg.DeltaValidation,
		},
		p.Controller.Execute,
		func(m *metamodel.Model, changes metamodel.ChangeList) {
			if p.UI != nil {
				p.UI.OnRuntimeModel(m, changes)
			}
		},
	)
	if err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	p.Synthesis = s
	return nil
}

func (p *Platform) buildUI(obj *metamodel.Object, deps Deps) error {
	u, err := ui.New(obj.StringAttr("name"), deps.DSML, p.Synthesis.Submit,
		ui.WithObs(p.tracer, p.metrics))
	if err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	p.UI = u
	return nil
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
	script  *script.Script
	forward bool
}

func buildAction(model *metamodel.Model, obj *metamodel.Object) (actionParts, error) {
	a := actionParts{name: obj.StringAttr("name"), forwardArgs: obj.BoolAttr("forwardArgs")}
	a.ops = splitOps(obj.StringAttr("ops"))
	if g := obj.StringAttr("guard"); g != "" {
		node, err := expr.Parse(g)
		if err != nil {
			return a, fmt.Errorf("runtime: action %s: guard: %w", obj.ID, err)
		}
		a.guard = node
	}
	steps, err := buildSteps(model, obj)
	if err != nil {
		return a, fmt.Errorf("runtime: action %s: %w", obj.ID, err)
	}
	a.steps = steps
	return a, nil
}

func buildEventAction(model *metamodel.Model, obj *metamodel.Object, deps Deps, allowScript bool) (eventActionParts, error) {
	ea := eventActionParts{
		name:    obj.StringAttr("name"),
		event:   obj.StringAttr("event"),
		forward: obj.BoolAttr("forward"),
	}
	if g := obj.StringAttr("guard"); g != "" {
		node, err := expr.Parse(g)
		if err != nil {
			return ea, fmt.Errorf("runtime: event action %s: guard: %w", obj.ID, err)
		}
		ea.guard = node
	}
	steps, err := buildSteps(model, obj)
	if err != nil {
		return ea, fmt.Errorf("runtime: event action %s: %w", obj.ID, err)
	}
	ea.steps = steps
	if name := obj.StringAttr("scriptName"); name != "" {
		if !allowScript {
			return ea, fmt.Errorf("runtime: event action %s: installed scripts are a Controller-layer feature", obj.ID)
		}
		s, ok := deps.Scripts[name]
		if !ok {
			return ea, fmt.Errorf("runtime: event action %s: unknown installed script %q", obj.ID, name)
		}
		ea.script = s
	}
	return ea, nil
}

// buildSteps resolves a steps reference into templates ordered by the
// Step.order attribute.
func buildSteps(model *metamodel.Model, owner *metamodel.Object) ([]script.Template, error) {
	stepObjs := model.Resolve(owner, "steps")
	sort.SliceStable(stepObjs, func(i, j int) bool {
		return stepObjs[i].IntAttr("order") < stepObjs[j].IntAttr("order")
	})
	var out []script.Template
	for _, st := range stepObjs {
		tpl := script.Template{
			Op:     st.StringAttr("op"),
			Target: st.StringAttr("target"),
		}
		args := model.Resolve(st, "args")
		if len(args) > 0 {
			tpl.Args = make(map[string]string, len(args))
			for _, arg := range args {
				tpl.Args[arg.StringAttr("key")] = arg.StringAttr("value")
			}
		}
		out = append(out, tpl)
	}
	return out, nil
}

func buildPolicies(model *metamodel.Model, owner *metamodel.Object) ([]policy.Policy, error) {
	var out []policy.Policy
	for _, polObj := range model.Resolve(owner, "policies") {
		cond, err := expr.Parse(polObj.StringAttr("condition"))
		if err != nil {
			return nil, fmt.Errorf("runtime: policy %s: %w", polObj.ID, err)
		}
		p := policy.Policy{
			Name:      polObj.StringAttr("name"),
			Priority:  int(polObj.IntAttr("priority")),
			Condition: cond,
		}
		for _, effObj := range model.Resolve(polObj, "effects") {
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

// SubmitModel submits an application model through the platform's top
// layer: the UI layer when present (so the submission crosses the full
// UI→Synthesis hop), the Synthesis layer otherwise.
func (p *Platform) SubmitModel(m *metamodel.Model) (*script.Script, error) {
	if p.UI != nil {
		return p.UI.Submit(m)
	}
	if p.Synthesis == nil {
		return nil, fmt.Errorf("runtime: platform %s has no Synthesis layer", p.Name)
	}
	return p.Synthesis.Submit(m)
}

// Obs returns the platform's observability pair (nil, nil when disabled).
func (p *Platform) Obs() (*obs.Tracer, *obs.Metrics) { return p.tracer, p.metrics }

// Execute runs a control script directly on the Controller layer (the
// entry point for layer-suppressed deployments such as 2SVM smart objects).
func (p *Platform) Execute(s *script.Script) error {
	if p.Controller == nil {
		return fmt.Errorf("runtime: platform %s has no Controller layer", p.Name)
	}
	return p.Controller.Execute(s)
}

// DeliverEvent injects a resource event synchronously into the Broker
// layer (deterministic path used by tests and virtual-time experiments).
// A failure anywhere up the layer stack fails the delivery.
func (p *Platform) DeliverEvent(ev broker.Event) error {
	return p.Broker.OnEvent(ev)
}

// Start arms the platform for asynchronous events. The event pump itself
// starts with the first PostEvent: it routes resource events onto N
// shards (Config.PumpShards, default GOMAXPROCS), each drained by its own
// goroutine into the Broker layer, and events sharing a name are
// delivered strictly in post order. A platform that is never posted an
// event holds no shard queue or goroutine. Start is idempotent.
func (p *Platform) Start() {
	p.pumpMu.Lock()
	p.started = true
	p.pumpMu.Unlock()
}

// startPumpLocked creates a fresh pump generation; pumpMu must be held.
func (p *Platform) startPumpLocked() {
	n := p.cfg.PumpShards
	if n <= 0 {
		n = goruntime.GOMAXPROCS(0)
	}
	p.pump = newPump(p, n, p.cfg.PumpQueue)
}

// PostEvent enqueues a resource event for asynchronous delivery, starting
// the event pump on the first post to a started platform. It returns
// false — counting the refusal in the pump.events.rejected metric — when
// the platform is not started (or stopped) or the event's shard queue is
// full; it never blocks the caller. A rejected event was never accepted,
// so it does not participate in the pump's delivery accounting.
func (p *Platform) PostEvent(ev broker.Event) bool {
	if p.injector.ShouldDrop(SitePumpPost) {
		p.mRejected.Inc()
		return false
	}
	p.pumpMu.Lock()
	if p.pump == nil && p.started {
		p.startPumpLocked()
	}
	pu := p.pump
	p.pumpMu.Unlock()
	if pu == nil || !pu.post(ev) {
		p.mRejected.Inc()
		return false
	}
	return true
}

// Stop shuts any autonomic monitor down, then drains the event pump, if
// the platform was ever posted an event: intake closes (further posts are
// counted rejections), queued events are delivered until the drain
// deadline (Config.DrainTimeout), and anything abandoned past it is a
// counted drop — no accepted event leaves the pump unaccounted.
// Stop is idempotent.
func (p *Platform) Stop() {
	p.StopMonitor()
	p.pumpMu.Lock()
	p.started = false
	pu := p.pump
	p.pump = nil
	p.pumpMu.Unlock()
	if pu == nil {
		return
	}
	pu.stop()
}

// monitorInterval is the monitor's evaluation period: interval, or 1s
// when Monitor is given none.
func monitorInterval(interval time.Duration) time.Duration {
	if interval <= 0 {
		return time.Second
	}
	return interval
}

// Monitor launches the platform's autonomic monitor: every interval (1s
// when interval <= 0) it runs the probe, when one is given, and then
// evaluates the Broker's autonomic symptoms. Ticks and spans go to the
// platform's own tracer and metrics. Monitor is idempotent while a
// monitor runs: the running monitor keeps its interval and probe, the new
// ones are ignored, and the returned stop function (also available as
// StopMonitor) terminates the already-running loop and waits for it to
// exit.
func (p *Platform) Monitor(interval time.Duration, probe func()) (stop func()) {
	p.pumpMu.Lock()
	if p.monStop != nil {
		p.pumpMu.Unlock()
		return p.StopMonitor
	}
	interval = monitorInterval(interval)
	ticks := p.metrics.Counter(obs.MMonitorTicks)
	probeFail := p.metrics.Counter(obs.MProbeFailures)
	evalFail := p.metrics.Counter(obs.MEvalFailures)
	p.monStop = make(chan struct{})
	p.monDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				sp := p.tracer.Start(obs.SpanMonitorTick)
				ticks.Inc()
				if probe != nil && !p.runProbe(probe) {
					probeFail.Inc()
				}
				// Asynchronous evaluation failures have no caller; the
				// next tick retries, so the failure is only counted.
				if err := p.Broker.Autonomic().Evaluate(); err != nil {
					evalFail.Inc()
				}
				sp.End()
			case <-stop:
				return
			}
		}
	}(p.monStop, p.monDone)
	p.pumpMu.Unlock()
	return p.StopMonitor
}

// runProbe executes a monitor probe in degraded mode: an injected
// monitor.probe fault skips the probe, and a panicking probe is recovered
// (and counted) so a failing sensor cannot kill the monitor loop. It
// reports whether the probe ran to completion.
func (p *Platform) runProbe(probe func()) (ok bool) {
	if p.injector.Inject(SiteMonitorProbe) != nil {
		return false
	}
	defer func() {
		if recover() != nil {
			p.mPanics.Inc()
		}
	}()
	probe()
	return true
}

// StopMonitor terminates the autonomic monitor and waits for it to exit.
// It is idempotent and safe when no monitor is running.
func (p *Platform) StopMonitor() {
	p.pumpMu.Lock()
	stop, done := p.monStop, p.monDone
	p.monStop = nil
	p.monDone = nil
	p.pumpMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
