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
	"sync/atomic"
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

	// routeErrs carries upper-layer event-handling failures back to the
	// delivery in flight, keyed by goroutine ID (routing is synchronous):
	// the Broker's notify callback cannot return an error, yet a failed
	// forward must fail the delivery so the event dead-letters.
	routeMu   sync.Mutex
	routeErrs map[uint64]error
	// routePending counts stashed routing errors so the per-delivery
	// pickup can skip the lock (and the goroutine-ID parse) entirely in
	// the overwhelmingly common no-failure case.
	routePending atomic.Int32

	tracer   *obs.Tracer
	metrics  *obs.Metrics
	injector *fault.Injector

	// cfg is the platform's resolved configuration (Defaults folded with
	// WithConfig and the single-field options).
	cfg Config

	// model is the validated middleware model the platform was built from,
	// retained for checkpointing (models@runtime: the platform *is* this
	// model).
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
	sup *Supervisor

	pumpMu  sync.Mutex
	started bool
	pump    *pump
	monStop chan struct{}
	monDone chan struct{}
	monOpts []MonitorOption
}

// Option customises platform construction. Every option is a thin wrapper
// over one Config field; WithConfig sets them all at once.
type Option func(*Platform)

// WithExternalEvents routes events escaping the topmost layer to fn.
func WithExternalEvents(fn func(broker.Event)) Option {
	return func(p *Platform) { p.cfg.ExternalEvents = fn }
}

// WithPumpQueue sets each pump shard's queue capacity (default 256).
// PostEvent reports false and counts a drop when the target shard's queue
// is full.
func WithPumpQueue(n int) Option {
	return func(p *Platform) {
		if n > 0 {
			p.cfg.PumpQueue = n
		}
	}
}

// WithPumpShards sets the event pump's shard count (default GOMAXPROCS).
// Each shard owns a bounded queue and a delivery goroutine; events sharing
// a shard key are delivered strictly in post order, events on different
// shards concurrently.
func WithPumpShards(n int) Option {
	return func(p *Platform) {
		if n > 0 {
			p.cfg.PumpShards = n
		}
	}
}

// WithShardKey names the event attribute the pump shards by. Events
// carrying the attribute are routed by its value; events without it (and
// the default, attr == "") fall back to a hash of the event name.
func WithShardKey(attr string) Option {
	return func(p *Platform) { p.cfg.ShardKey = attr }
}

// WithDrainTimeout bounds Stop's graceful drain (default 5s): events
// still queued when the deadline expires are abandoned as counted drops.
func WithDrainTimeout(d time.Duration) Option {
	return func(p *Platform) {
		if d > 0 {
			p.cfg.DrainTimeout = d
		}
	}
}

// WithDLQCapacity bounds the dead-letter queue (default 256). Zero
// disables dead-lettering entirely: failed deliveries then revert to
// counted terminal losses ("pump.deliver.failures").
func WithDLQCapacity(n int) Option {
	return func(p *Platform) {
		switch {
		case n > 0:
			p.cfg.DLQCapacity = n
		case n == 0:
			p.cfg.DLQCapacity = DLQDisabled
		}
	}
}

// WithSupervisor tunes the watchdog supervisor's health thresholds and
// restart backoff; the zero config's defaults apply otherwise.
func WithSupervisor(cfg SupervisorConfig) Option {
	return func(p *Platform) { p.cfg.Supervisor = cfg }
}

// WithDeltaValidation switches the Synthesis layer to incremental delta
// validation of submissions (see Config.DeltaValidation).
func WithDeltaValidation(on bool) Option {
	return func(p *Platform) { p.cfg.DeltaValidation = on }
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
// validation runs on a clone (it applies defaults), which the platform
// keeps; the caller's model stays intact.
func Build(model *metamodel.Model, deps Deps, opts ...Option) (*Platform, error) {
	p := &Platform{
		tracer:    deps.Tracer,
		metrics:   deps.Metrics,
		injector:  deps.Injector,
		routeErrs: map[uint64]error{},
	}
	for _, o := range opts {
		o(p)
	}
	if err := p.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	p.cfg = p.cfg.withDefaults()
	p.external = p.cfg.ExternalEvents
	work := model.Clone()
	if err := work.Validate(mwmeta.MM()); err != nil {
		return nil, fmt.Errorf("runtime: middleware model does not conform: %w", err)
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
	p.sup = newSupervisor(p.cfg.Supervisor, p.metrics)
	p.sup.register("pump", p.restartPump)
	p.sup.register("monitor", p.restartMonitor)

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

// routeBrokerEvent forwards Broker events to the Controller or the external
// sink. The notify callback cannot return an error, so an upper-layer
// failure is stashed for the delivery in flight on this goroutine — the
// pump (or DeliverEvent) picks it up and the event dead-letters instead of
// counting delivered.
func (p *Platform) routeBrokerEvent(ev broker.Event) {
	if p.Controller != nil {
		if err := p.Controller.OnEvent(ev); err != nil {
			p.noteRouteError(err)
		}
		return
	}
	if ext := p.externalSink(); ext != nil {
		ext(ev)
	}
}

// routeControllerEvent forwards Controller events to the Synthesis layer
// and then to the external observer (which is the sole consumer when the
// platform has no Synthesis layer).
func (p *Platform) routeControllerEvent(ev broker.Event) {
	if p.Synthesis != nil {
		if err := p.Synthesis.OnEvent(ev); err != nil {
			p.noteRouteError(err)
		}
	}
	if ext := p.externalSink(); ext != nil {
		ext(ev)
	}
}

// noteRouteError records the first upper-layer event-handling failure of
// the delivery in flight on this goroutine. Event routing is synchronous,
// so the goroutine ID keys exactly one delivery at a time.
func (p *Platform) noteRouteError(err error) {
	id := obs.GoID()
	p.routeMu.Lock()
	if _, dup := p.routeErrs[id]; !dup {
		p.routeErrs[id] = err
		p.routePending.Add(1)
	}
	p.routeMu.Unlock()
}

// takeRouteError returns and clears this goroutine's stashed routing
// failure, if any. A goroutine's own stash is always visible here: the
// note happened earlier on this same goroutine, so the pending counter is
// non-zero by program order and the slow path runs.
func (p *Platform) takeRouteError() error {
	if p.routePending.Load() == 0 {
		return nil
	}
	return p.takeRouteErrorFrom(obs.GoID())
}

// takeRouteErrorFrom is takeRouteError for callers that already resolved
// their goroutine ID.
func (p *Platform) takeRouteErrorFrom(id uint64) error {
	if p.routePending.Load() == 0 {
		return nil
	}
	p.routeMu.Lock()
	err := p.routeErrs[id]
	if err != nil {
		delete(p.routeErrs, id)
		p.routePending.Add(-1)
	}
	p.routeMu.Unlock()
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
	pols, err := buildPolicies(model, obj)
	if err != nil {
		return err
	}
	cfg.Policies = pols

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
	g := obs.GoID()
	err := p.Broker.OnEventFrom(g, ev)
	if rerr := p.takeRouteErrorFrom(g); err == nil {
		err = rerr
	}
	return err
}

// Start launches the platform's event pump: PostEvent routes resource
// events onto N shards (WithPumpShards, default GOMAXPROCS), each drained
// by its own goroutine into the Broker layer. Events sharing a shard key
// are delivered strictly in post order. Start also arms the watchdog
// supervisor. Start is idempotent.
func (p *Platform) Start() {
	p.pumpMu.Lock()
	p.started = true
	if p.pump == nil {
		p.startPumpLocked()
	}
	p.pumpMu.Unlock()
	p.sup.start()
}

// startPumpLocked creates a fresh pump generation; pumpMu must be held.
func (p *Platform) startPumpLocked() {
	n := p.cfg.PumpShards
	if n <= 0 {
		n = goruntime.GOMAXPROCS(0)
	}
	p.pump = newPump(p, n, p.cfg.PumpQueue)
}

// PostEvent enqueues a resource event for asynchronous delivery. It
// returns false — counting the refusal in the pump.events.rejected metric
// — when the pump is not running or the event's shard queue is full; it
// never blocks the caller. A rejected event was never accepted, so it does
// not participate in the pump's delivery accounting.
func (p *Platform) PostEvent(ev broker.Event) bool {
	if p.injector.ShouldDrop(SitePumpPost) {
		p.mRejected.Inc()
		return false
	}
	p.pumpMu.Lock()
	pu := p.pump
	p.pumpMu.Unlock()
	if pu == nil || !pu.post(ev) {
		p.mRejected.Inc()
		return false
	}
	return true
}

// Stop shuts any autonomic monitor down, disarms the supervisor (waiting
// out any in-flight restart), then drains the event pump: intake closes
// (further posts are counted rejections), queued events are delivered
// until the drain deadline (WithDrainTimeout), and anything abandoned past
// it is a counted drop — no accepted event leaves the pump unaccounted.
// Stop is idempotent.
func (p *Platform) Stop() {
	p.StopMonitor()
	p.pumpMu.Lock()
	p.started = false
	pu := p.pump
	p.pump = nil
	p.pumpMu.Unlock()
	// Disarm before draining the old pump: a concurrent supervisor restart
	// that already detached the pump will stop it itself and, seeing
	// started == false, will not install a successor.
	p.sup.stop()
	if pu == nil {
		return
	}
	pu.stop()
}

// Supervisor exposes the platform's watchdog (health inspection in tests
// and operator tooling).
func (p *Platform) Supervisor() *Supervisor { return p.sup }

// restartPump is the supervisor's restart hook for the event pump: it
// detaches and drains the quarantined generation, then installs a fresh
// one — unless the platform stopped in the meantime.
func (p *Platform) restartPump() error {
	p.pumpMu.Lock()
	if !p.started {
		p.pumpMu.Unlock()
		return nil
	}
	old := p.pump
	p.pump = nil
	p.pumpMu.Unlock()
	if old != nil {
		old.stop()
	}
	p.pumpMu.Lock()
	defer p.pumpMu.Unlock()
	if p.started && p.pump == nil {
		p.startPumpLocked()
	}
	return nil
}

// restartMonitor is the supervisor's restart hook for the autonomic
// monitor: it bounces the loop with the options it was started with. A
// deliberately stopped monitor (no saved options) stays stopped.
func (p *Platform) restartMonitor() error {
	p.pumpMu.Lock()
	opts := p.monOpts
	p.pumpMu.Unlock()
	if opts == nil {
		return nil
	}
	p.StopMonitor()
	p.Monitor(opts...)
	return nil
}

// monitorConfig collects the autonomic monitor's options.
type monitorConfig struct {
	interval time.Duration
	probe    func()
	tracer   *obs.Tracer
	metrics  *obs.Metrics
}

// MonitorOption customises the autonomic monitor started by Monitor.
type MonitorOption func(*monitorConfig)

// WithInterval sets the monitor's evaluation period (default 1s).
func WithInterval(d time.Duration) MonitorOption {
	return func(c *monitorConfig) {
		if d > 0 {
			c.interval = d
		}
	}
}

// WithProbe installs a function run before each symptom evaluation,
// typically publishing telemetry into the Broker context.
func WithProbe(fn func()) MonitorOption {
	return func(c *monitorConfig) { c.probe = fn }
}

// WithObs overrides the observability pair recording the monitor's tick
// spans and counters; the platform's own pair is used by default.
func WithObs(t *obs.Tracer, m *obs.Metrics) MonitorOption {
	return func(c *monitorConfig) {
		c.tracer = t
		c.metrics = m
	}
}

// Monitor launches the platform's autonomic monitor: every interval it
// runs the probe (when one is installed) and then evaluates the Broker's
// autonomic symptoms. Monitor is idempotent while a monitor runs: the
// running monitor keeps its original options, the new ones are ignored
// entirely (no counters are registered on their obs pair), and the
// returned stop function (also available as StopMonitor) terminates the
// already-running loop and waits for it to exit.
func (p *Platform) Monitor(opts ...MonitorOption) (stop func()) {
	p.pumpMu.Lock()
	if p.monStop != nil {
		p.pumpMu.Unlock()
		return p.StopMonitor
	}
	cfg := monitorConfig{
		interval: p.cfg.MonitorInterval,
		tracer:   p.tracer,
		metrics:  p.metrics,
	}
	for _, o := range opts {
		o(&cfg)
	}
	ticks := cfg.metrics.Counter(obs.MMonitorTicks)
	probeFail := cfg.metrics.Counter(obs.MProbeFailures)
	evalFail := cfg.metrics.Counter(obs.MEvalFailures)
	if opts == nil {
		opts = []MonitorOption{} // non-nil: "started with defaults" ≠ "never started"
	}
	p.monOpts = opts
	p.monStop = make(chan struct{})
	p.monDone = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(cfg.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				sp := cfg.tracer.Start(obs.SpanMonitorTick)
				ticks.Inc()
				healthy := true
				if cfg.probe != nil {
					if ran, panicked := p.runProbe(cfg.probe); !ran {
						probeFail.Inc()
						healthy = false
						if panicked {
							p.sup.ReportPanic("monitor")
						} else {
							p.sup.ReportFailure("monitor")
						}
					}
				}
				// Asynchronous evaluation failures have no caller; the
				// next tick retries, so the failure is only counted.
				if err := p.Broker.Autonomic().Evaluate(); err != nil {
					evalFail.Inc()
					healthy = false
					p.sup.ReportFailure("monitor")
				}
				if healthy {
					p.sup.ReportSuccess("monitor")
				}
				sp.End()
			case <-stop:
				return
			}
		}
	}(p.monStop, p.monDone)
	p.pumpMu.Unlock()
	p.sup.start()
	return p.StopMonitor
}

// runProbe executes a monitor probe in degraded mode: an injected
// monitor.probe fault skips the probe, and a panicking probe is recovered
// (and counted) so a failing sensor cannot kill the monitor loop. It
// reports whether the probe ran to completion and whether it panicked.
func (p *Platform) runProbe(probe func()) (ok, panicked bool) {
	if p.injector.Inject(SiteMonitorProbe) != nil {
		return false, false
	}
	defer func() {
		if r := recover(); r != nil {
			p.mPanics.Inc()
			ok, panicked = false, true
		}
	}()
	probe()
	return true, false
}

// StopMonitor terminates the autonomic monitor and waits for it to exit.
// It also forgets the monitor's saved options, so the supervisor will not
// resurrect a deliberately stopped monitor. It is idempotent and safe when
// no monitor is running.
func (p *Platform) StopMonitor() {
	p.pumpMu.Lock()
	stop, done := p.monStop, p.monDone
	p.monStop = nil
	p.monDone = nil
	p.monOpts = nil
	p.pumpMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
