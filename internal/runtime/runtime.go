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
	"sync"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/controller"
	"github.com/mddsm/mddsm/internal/eu"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/intent"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
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

	// plan is the compiled middleware model the platform was built from,
	// retained for checkpointing (models@runtime: the platform *is* this
	// model). It is never modified, so snapshots share it.
	plan *Plan

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
// compiles it and instantiates the platform: Compile, then Instantiate.
// It compiles a copy, which the platform keeps, so the caller's model
// stays intact and may be edited afterwards. Hosts that build many
// platforms of one model compile it once and instantiate the plan instead
// (core.Check and core.Build do).
func Build(model *metamodel.Model, deps Deps, cfg Config) (*Platform, error) {
	plan, err := Compile(model.Clone())
	if err != nil {
		return nil, err
	}
	return Instantiate(plan, deps, cfg)
}

// Instantiate creates a platform from a compiled plan, which it shares
// and never modifies: it binds the plan's broker bindings to deps'
// adapters, its installed-script names to deps' scripts, its command
// classes to deps' repository and its synthesis layer to deps' DSML and
// LTS, and creates the layers. It walks and parses nothing. An invalid
// cfg fails the build rather than being clamped.
func Instantiate(plan *Plan, deps Deps, cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	p := &Platform{
		Name:     plan.name,
		Domain:   plan.domain,
		tracer:   deps.Tracer,
		metrics:  deps.Metrics,
		injector: deps.Injector,
		cfg:      cfg.withDefaults(),
		plan:     plan,
	}
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

	if err := p.buildBroker(&plan.broker, deps); err != nil {
		return nil, err
	}
	if plan.controller != nil {
		if err := p.buildController(plan.controller, deps); err != nil {
			return nil, err
		}
	}
	if plan.synthesis != nil {
		if err := p.buildSynthesis(plan.synthesis, deps); err != nil {
			return nil, err
		}
	}
	if plan.ui != nil {
		if err := p.buildUI(plan.ui, deps); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Plan returns the compiled middleware model the platform runs, which it
// shares with every platform instantiated from the same plan.
func (p *Platform) Plan() *Plan { return p.plan }

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

func (p *Platform) buildBroker(bp *brokerPlan, deps Deps) error {
	rm := broker.NewResourceManager()
	for _, bind := range bp.bindings {
		adapter, ok := deps.Adapters[bind.adapter]
		if !ok {
			return fmt.Errorf("runtime: broker binding %s: unknown adapter %q", bind.id, bind.adapter)
		}
		rm.Register(bind.op, adapter)
	}
	p.Broker = broker.New(broker.Config{
		Name:         bp.name,
		Actions:      bp.actions,
		EventActions: bp.eventActions,
		Symptoms:     bp.symptoms,
		ChangePlans:  bp.changePlans,
		Tracer:       p.tracer,
		Metrics:      p.metrics,
		Injector:     deps.Injector,
		Resilience:   deps.Resilience,
	}, rm, p.routeBrokerEvent)
	return nil
}

func (p *Platform) buildController(cp *controllerPlan, deps Deps) error {
	events := cp.eventActions
	if len(cp.scripts) > 0 {
		// Installed scripts are the deps', so only this platform's copy
		// of the event actions that run one carries them.
		events = append([]*controller.EventAction(nil), events...)
		for _, ref := range cp.scripts {
			s, ok := deps.Scripts[ref.name]
			if !ok {
				return fmt.Errorf("runtime: event action %s: unknown installed script %q", ref.id, ref.name)
			}
			ea := *events[ref.at]
			ea.Script = s
			events[ref.at] = &ea
		}
	}
	classes := make([]controller.CommandClass, 0, len(cp.classes))
	for _, cl := range cp.classes {
		if deps.Repository == nil {
			return fmt.Errorf("runtime: command class %s: goal DSC %q declared but no procedure repository in DSK", cl.id, cl.goal)
		}
		if deps.Repository.Taxonomy().Get(cl.goal) == nil {
			return fmt.Errorf("runtime: command class %s: goal DSC %q not in taxonomy", cl.id, cl.goal)
		}
		classes = append(classes, controller.CommandClass{Op: cl.op, GoalDSC: cl.goal})
	}
	p.Controller = controller.New(controller.Config{
		Name:         cp.name,
		Actions:      cp.actions,
		EventActions: events,
		Classes:      classes,
		Policies:     cp.policies,
		Repository:   deps.Repository,
		Generator: intent.Options{
			MaxDepth:     cp.maxDepth,
			DisableCache: !cp.cacheEnabled,
		},
		Machine:  eu.Limits{MaxDepth: cp.maxDepth},
		Clock:    deps.Clock,
		Tracer:   p.tracer,
		Metrics:  p.metrics,
		Injector: deps.Injector,
	}, p.Broker, p.routeControllerEvent)
	return nil
}

func (p *Platform) buildSynthesis(sp *synthesisPlan, deps Deps) error {
	if deps.DSML == nil {
		return fmt.Errorf("runtime: synthesis layer %s: no DSML in DSK", sp.id)
	}
	def, ok := deps.LTSes[sp.lts]
	if !ok {
		return fmt.Errorf("runtime: synthesis layer %s: unknown LTS %q", sp.id, sp.lts)
	}
	s, err := synthesis.New(
		synthesis.Config{
			Name: sp.name, DSML: deps.DSML, LTS: def,
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

func (p *Platform) buildUI(lp *layerPlan, deps Deps) error {
	u, err := ui.New(lp.name, deps.DSML, p.Synthesis.Submit,
		ui.WithObs(p.tracer, p.metrics))
	if err != nil {
		return fmt.Errorf("runtime: %w", err)
	}
	p.UI = u
	return nil
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
