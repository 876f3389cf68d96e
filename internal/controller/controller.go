// Package controller implements the Controller layer of the MD-DSM
// reference architecture (paper §III, §V-B, §VI, Fig. 8). The layer drives
// the execution of command scripts received from the Synthesis layer:
// received signals (calls and events) are queued, parsed into commands, and
// classified — taking domain policies and context into account — into
// Case 1 (selection of a predefined action) or Case 2 (dynamic generation
// of an intent model executed on the stack machine). Events from the Broker
// layer, or raised by the Controller itself, are processed by the event
// handler, which can also trigger installed scripts (the 2SVM pattern).
package controller

import (
	"fmt"
	"sync"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/eu"
	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/intent"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/policy"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/simtime"
)

// SiteDispatch is the fault point fired on each command dispatch, letting
// a fault.Injector rehearse Controller-level failures deterministically.
const SiteDispatch = "controller.dispatch"

// BrokerAPI is the surface of the layer below: the Broker's exposed call
// interface.
type BrokerAPI interface {
	Call(cmd script.Command) error
}

// Action is a predefined Case-1 action: it realises one or more command
// operations as a sequence of Broker calls.
type Action struct {
	Name  string
	Ops   []string
	Guard expr.Node
	Steps []script.Template
	// ForwardArgs copies the triggering command's arguments onto every
	// expanded step call (explicit step args win).
	ForwardArgs bool
}

func (a *Action) handles(op string) bool {
	for _, o := range a.Ops {
		if o == op || o == "*" {
			return true
		}
	}
	return false
}

// EventAction reacts to an event reaching the Controller's event handler.
// Steps are Broker calls; Script, when set, is an installed command script
// re-entering the Controller's own command pipeline (classification
// included) — the mechanism 2SVM uses for scripts whose execution is
// triggered by asynchronous events. Forward propagates the event upward to
// the Synthesis layer.
type EventAction struct {
	Name    string
	Event   string // event name or "*"
	Guard   expr.Node
	Steps   []script.Template
	Script  *script.Script
	Forward bool
}

// CommandClass maps a command operation to the goal DSC realising it in
// Case 2. This is the command-classification metadata of the middleware
// model.
type CommandClass struct {
	Op      string
	GoalDSC string
}

// Config assembles a Controller layer.
type Config struct {
	Name         string
	Actions      []*Action
	EventActions []*EventAction
	Classes      []CommandClass
	// Policies drive command classification (decision key "case":
	// "action" or "intent") and intent-model selection (keys "optimize",
	// "preferTag", "maxCost").
	Policies []policy.Policy
	// Repository backs Case-2 generation; may be nil for a Controller
	// that relies solely on predefined action handlers.
	Repository *registry.Repository
	Generator  intent.Options
	Machine    eu.Limits
	// Clock charges procedure costs and EU delays as virtual time; nil
	// disables time accounting.
	Clock simtime.Clock
	// Tracer and Metrics observe the layer; both may be nil (disabled).
	Tracer  *obs.Tracer
	Metrics *obs.Metrics
	// Injector evaluates the layer's SiteDispatch fault point; nil
	// disables injection.
	Injector *fault.Injector
}

// Stats counts layer activity for the evaluation harness.
type Stats struct {
	Commands  int
	Case1     int
	Case2     int
	Events    int
	Denied    int // commands refused by a policy "deny" effect
	Generated int // full IM generation cycles (excluding cache hits)
	CacheHits int
}

// Controller is the live Controller layer.
type Controller struct {
	name     string
	broker   BrokerAPI
	context  *policy.Context
	engine   *policy.Engine
	actions  []*Action
	events   []*EventAction
	classes  map[string]string
	injector *fault.Injector
	repo     *registry.Repository
	gen      *intent.Generator
	machine  *eu.Machine
	notify   func(broker.Event) error
	drain    *broker.Drain

	tracer    *obs.Tracer
	mCommands *obs.Counter
	mScripts  *obs.Counter
	mEvents   *obs.Counter
	mDenials  *obs.Counter
	mPanics   *obs.Counter

	mu    sync.Mutex
	stats Stats
}

// clockCharger charges machine time against a clock.
type clockCharger struct{ clock simtime.Clock }

var _ eu.TimeCharger = clockCharger{}

// Charge implements eu.TimeCharger.
func (c clockCharger) Charge(d time.Duration) { c.clock.Sleep(d) }

// eventSink lets running EUs raise Controller events.
type eventSink struct{ c *Controller }

func (s eventSink) Emit(event string, args map[string]any) {
	// Errors from event processing inside an EU are deliberately dropped:
	// the EU's own failure path is its return value.
	_ = s.c.OnEvent(broker.Event{Name: event, Attrs: args})
}

// New builds a Controller on top of a Broker. notify receives events
// forwarded to the Synthesis layer and may be nil; its error fails the
// event being processed.
func New(cfg Config, b BrokerAPI, notify func(broker.Event) error) *Controller {
	c := &Controller{
		name:      cfg.Name,
		broker:    b,
		context:   policy.NewContext(),
		engine:    policy.NewEngine(cfg.Policies...),
		actions:   cfg.Actions,
		events:    cfg.EventActions,
		classes:   make(map[string]string, len(cfg.Classes)),
		injector:  cfg.Injector,
		notify:    notify,
		tracer:    cfg.Tracer,
		mCommands: cfg.Metrics.Counter(obs.MControllerCommands),
		mScripts:  cfg.Metrics.Counter(obs.MScriptsExecuted),
		mEvents:   cfg.Metrics.Counter(obs.MControllerEvents),
		mDenials:  cfg.Metrics.Counter(obs.MPolicyDenials),
		mPanics:   cfg.Metrics.Counter(obs.MPanicsRecovered),
	}
	c.drain = broker.NewDrain("controller.event",
		cfg.Metrics.Counter(obs.MControllerReentrantDropped), c.mPanics)
	for _, cl := range cfg.Classes {
		c.classes[cl.Op] = cl.GoalDSC
	}
	if cfg.Repository != nil {
		c.repo = cfg.Repository
		c.gen = intent.NewGenerator(cfg.Repository, c.engine, cfg.Generator)
	}
	var charger eu.TimeCharger
	if cfg.Clock != nil {
		charger = clockCharger{clock: cfg.Clock}
	}
	c.machine = eu.NewMachine(brokerInvoker{b}, eventSink{c}, charger, cfg.Machine)
	c.machine.SetObs(cfg.Tracer, cfg.Metrics)
	return c
}

// brokerInvoker adapts BrokerAPI to the machine's eu.Broker interface.
type brokerInvoker struct{ api BrokerAPI }

func (bi brokerInvoker) Invoke(cmd script.Command) error { return bi.api.Call(cmd) }

// Name returns the layer instance name.
func (c *Controller) Name() string { return c.name }

// Context returns the layer's context-variable store.
func (c *Controller) Context() *policy.Context { return c.context }

// Repository returns the procedure repository intent generation draws
// on, nil without one. Platforms of one domain share it; it is read-only.
func (c *Controller) Repository() *registry.Repository { return c.repo }

// Stats returns a copy of the activity counters, folding in generator
// statistics.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	if c.gen != nil {
		gs := c.gen.Stats()
		s.Generated = gs.Generations
		s.CacheHits = gs.CacheHits
	}
	return s
}

// RestoreStats reinstates checkpointed activity counters on a freshly
// built layer. Generated and CacheHits are live generator statistics and
// are not restored (a fresh generator starts cold).
func (c *Controller) RestoreStats(s Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Generated = 0
	s.CacheHits = 0
	c.stats = s
}

// InvalidateIntentCache clears the Case-2 generation cache. Call it after
// mutating the procedure repository.
func (c *Controller) InvalidateIntentCache() {
	if c.gen != nil {
		c.gen.Invalidate()
	}
}

// Execute runs a command script: the layer's main entry point for the
// Synthesis layer. Commands are processed in order; the first failure
// aborts the script.
func (c *Controller) Execute(s *script.Script) error {
	c.mScripts.Inc()
	sp := c.tracer.Start(obs.SpanCtlScript)
	sp.SetStr("script", s.ID)
	defer sp.End()
	for i, cmd := range s.Commands {
		if err := c.Process(cmd); err != nil {
			return fmt.Errorf("controller %s: script %s: command %d (%s): %w",
				c.name, s.ID, i, cmd.Op, err)
		}
	}
	return nil
}

// Process classifies and executes a single command. A panic escaping the
// dispatch — a poisoned stub below the layer, a broken generator — is
// recovered and classified as a fault.PanicError so one bad command cannot
// kill the process.
func (c *Controller) Process(cmd script.Command) (err error) {
	c.mu.Lock()
	c.stats.Commands++
	c.mu.Unlock()
	c.mCommands.Inc()
	sp := c.tracer.Start(obs.SpanCtlCommand)
	sp.SetStr("op", cmd.Op)
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			c.mPanics.Inc()
			err = fault.Recovered(SiteDispatch, r)
		}
	}()
	if err := c.injector.Inject(SiteDispatch); err != nil {
		return fmt.Errorf("controller %s: dispatch %q: %w", c.name, cmd.Op, err)
	}

	scope := c.context.Snapshot()
	scope["op"] = cmd.Op
	scope["target"] = cmd.Target
	for k, v := range cmd.Args {
		scope[k] = v
	}

	// Command classification: policies may force a case; otherwise a
	// predefined action wins when one exists, falling back to dynamic
	// intent-model generation. Policies may also select a specific named
	// action via the "action" decision key (paper §V-A: alternative
	// actions for the same construct, chosen by policies and context).
	d, err := c.engine.Decide(scope)
	if err != nil {
		return fmt.Errorf("classification: %w", err)
	}
	// Policies may refuse a command outright via the "deny" decision key;
	// denials are counted so operators can see policy back-pressure.
	if d.Bool("deny", false) {
		c.mu.Lock()
		c.stats.Denied++
		c.mu.Unlock()
		c.mDenials.Inc()
		return fmt.Errorf("op %q denied by policy", cmd.Op)
	}
	execCase := d.String("case", "")
	var (
		action    *Action
		actionErr error
	)
	if name := d.String("action", ""); name != "" {
		action, actionErr = c.namedAction(name, cmd.Op)
	} else {
		action, actionErr = c.findAction(cmd.Op, scope)
	}
	if execCase == "" {
		if action != nil {
			execCase = "action"
		} else if _, ok := c.classes[cmd.Op]; ok {
			execCase = "intent"
		} else {
			if actionErr != nil {
				return actionErr
			}
			return fmt.Errorf("no predefined action and no command class for op %q", cmd.Op)
		}
	}

	switch execCase {
	case "action":
		if action == nil {
			if actionErr != nil {
				return actionErr
			}
			return fmt.Errorf("classified as action but no action handles op %q", cmd.Op)
		}
		c.mu.Lock()
		c.stats.Case1++
		c.mu.Unlock()
		return c.runAction(action, scope, cmd.Args)
	case "intent":
		c.mu.Lock()
		c.stats.Case2++
		c.mu.Unlock()
		return c.runIntent(cmd, scope)
	default:
		return fmt.Errorf("classification produced unknown case %q", execCase)
	}
}

// namedAction resolves a policy-selected action by name, checking it is
// declared for op. Guards are bypassed: the policy decision is the
// selection mechanism.
func (c *Controller) namedAction(name, op string) (*Action, error) {
	for _, a := range c.actions {
		if a.Name != name {
			continue
		}
		if !a.handles(op) {
			return nil, fmt.Errorf("policy selected action %q, which does not handle op %q", name, op)
		}
		return a, nil
	}
	return nil, fmt.Errorf("policy selected unknown action %q", name)
}

// findAction returns the first enabled predefined action for op, nil when
// none handles it, and an error only when a guard fails to evaluate.
func (c *Controller) findAction(op string, scope expr.MapScope) (*Action, error) {
	for _, a := range c.actions {
		if !a.handles(op) {
			continue
		}
		if a.Guard != nil {
			ok, err := expr.EvalBool(a.Guard, expr.Env{Scope: scope, Funcs: expr.StdFuncs()})
			if err != nil {
				return nil, fmt.Errorf("action %s: guard: %w", a.Name, err)
			}
			if !ok {
				continue
			}
		}
		return a, nil
	}
	return nil, nil
}

// runAction executes a Case-1 action: each step template expands into a
// Broker call.
func (c *Controller) runAction(a *Action, scope expr.MapScope, args map[string]any) error {
	for i, st := range a.Steps {
		call, err := st.Expand(scope)
		if err != nil {
			return fmt.Errorf("action %s: step %d: %w", a.Name, i, err)
		}
		if a.ForwardArgs {
			for k, v := range args {
				if _, exists := call.Arg(k); !exists {
					call = call.WithArg(k, v)
				}
			}
		}
		if err := c.broker.Call(call); err != nil {
			return fmt.Errorf("action %s: step %d: %w", a.Name, i, err)
		}
	}
	return nil
}

// runIntent executes a Case-2 command: generate (or fetch) the intent
// model for the command's goal DSC and run it on the stack machine.
func (c *Controller) runIntent(cmd script.Command, scope expr.MapScope) error {
	if c.gen == nil {
		return fmt.Errorf("op %q classified as intent but the layer has no procedure repository", cmd.Op)
	}
	goal, ok := c.classes[cmd.Op]
	if !ok {
		return fmt.Errorf("no command class maps op %q to a goal DSC", cmd.Op)
	}
	m, err := c.gen.Generate(goal, scope)
	if err != nil {
		return err
	}
	vars := make(map[string]any, len(cmd.Args)+2)
	for k, v := range cmd.Args {
		vars[k] = v
	}
	vars["op"] = cmd.Op
	vars["target"] = cmd.Target
	return c.machine.Run(m.Frames(), vars)
}

// OnEvent is the event handler entry point for events from the Broker
// layer or raised internally by EUs. They pass through the layer's drain
// (broker.Drain): an event raised by an EU mid-processing joins the raising
// goroutine's queue instead of recursing into the machine, and events
// arriving on distinct goroutines are processed concurrently. The caller
// that started the goroutine's drain gets the drain's first error, the
// Synthesis layer's failure included, or a recovered fault.PanicError
// (re-entrant events queued behind a panic count in
// "controller.events.reentrant.dropped").
func (c *Controller) OnEvent(ev broker.Event) (err error) {
	q := c.drain.Start(obs.GoID(), ev)
	if q == nil {
		return nil // queued behind this goroutine's running drain
	}
	defer c.drain.Recover(q, &err)
	for next, ok := c.drain.Next(q); ok; next, ok = c.drain.Next(q) {
		if perr := c.processEvent(next); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// processEvent runs the steps of each matching event action to the end and
// reports the first failure; a failed event is not forwarded upward.
func (c *Controller) processEvent(ev broker.Event) error {
	c.mu.Lock()
	c.stats.Events++
	c.mu.Unlock()
	c.mEvents.Inc()
	sp := c.tracer.Start(obs.SpanCtlEvent)
	sp.SetStr("event", ev.Name)
	defer sp.End()

	scope := c.context.Snapshot()
	scope["event"] = ev.Name
	for k, v := range ev.Attrs {
		scope[k] = v
	}
	matched := false
	forward := false
	var firstErr error
	for _, ea := range c.events {
		if ea.Event != "*" && ea.Event != ev.Name {
			continue
		}
		if ea.Guard != nil {
			ok, err := expr.EvalBool(ea.Guard, expr.Env{Scope: scope, Funcs: expr.StdFuncs()})
			if err != nil {
				return fmt.Errorf("controller %s: event action %s: guard: %w", c.name, ea.Name, err)
			}
			if !ok {
				continue
			}
		}
		matched = true
		forward = forward || ea.Forward
		for i, st := range ea.Steps {
			call, err := st.Expand(scope)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("event action %s: step %d: %w", ea.Name, i, err)
				}
				continue
			}
			if err := c.broker.Call(call); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("event action %s: step %d: %w", ea.Name, i, err)
			}
		}
		if ea.Script != nil {
			if err := c.Execute(ea.Script); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("event action %s: installed script: %w", ea.Name, err)
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if (!matched || forward) && c.notify != nil {
		return c.notify(ev)
	}
	return nil
}
