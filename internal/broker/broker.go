// Package broker implements the Broker layer of the MD-DSM reference
// architecture (paper §III, §V-A, Fig. 6). The layer interacts with the
// underlying resources and services for the actual execution of commands.
// Its configuration mirrors the Broker metamodel: a main manager exposing
// the layer interface and dispatching calls and events to actions selected
// by handlers, plus specialised managers for state, context, autonomic
// behaviour and resource access.
package broker

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/policy"
	"github.com/mddsm/mddsm/internal/script"
)

// Fault-point names evaluated by this layer's injector, if one is
// configured.
const (
	// SiteStep fires before each resource-step execution, inside the
	// retry loop so injected transient faults exercise it.
	SiteStep = "broker.step"
	// SiteEvent fires on resource-event ingress; a Drop fault silently
	// discards the event.
	SiteEvent = "broker.event"
)

// Event is a notification flowing through the layer: resource events enter
// from below, and the layer forwards events upward to the Controller. An
// event's name selects its event actions; domain-specific identifiers
// travel in Attrs under their established keys ("object", "device",
// "session", "stream", "participant", ...), which is exactly the shape the
// layer binds into event-action scopes. An accepted event's attribute map
// belongs to its poster and is never recycled, so a layer that defers an
// event may keep it.
type Event struct {
	Name  string
	Attrs map[string]any
}

// NewEvent builds an event from alternating key/value pairs. Pairs with
// empty string values are omitted, so emit sites can pass optional fields
// unconditionally. It panics on an odd-length list (a programming bug in
// static resource code).
func NewEvent(name string, kv ...any) Event {
	if len(kv)%2 != 0 {
		panic("broker.NewEvent: odd key/value list")
	}
	e := Event{Name: name}
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			panic("broker.NewEvent: non-string key")
		}
		if s, isStr := kv[i+1].(string); isStr && s == "" {
			continue
		}
		if e.Attrs == nil {
			e.Attrs = make(map[string]any, len(kv)/2)
		}
		e.Attrs[key] = kv[i+1]
	}
	return e
}

// Str returns the named attribute as a string ("" when absent or not a
// string).
func (e Event) Str(key string) string {
	s, _ := e.Attrs[key].(string)
	return s
}

// Copy returns a deep copy of the event, for consumers (a checkpoint, a
// test capturing events) that must not share the poster's map.
func (e Event) Copy() Event {
	if e.Attrs == nil {
		return Event{Name: e.Name}
	}
	attrs := make(map[string]any, len(e.Attrs))
	for k, v := range e.Attrs {
		attrs[k] = v
	}
	return Event{Name: e.Name, Attrs: attrs}
}

// Adapter executes resource commands; the Resource Manager routes broker
// steps to adapters.
type Adapter interface {
	Execute(cmd script.Command) error
}

// AdapterFunc adapts a function to the Adapter interface.
type AdapterFunc func(cmd script.Command) error

var _ Adapter = AdapterFunc(nil)

// Execute implements Adapter.
func (f AdapterFunc) Execute(cmd script.Command) error { return f(cmd) }

// ResourceManager routes resource commands to registered adapters by
// operation name, with "*" as the fallback route.
type ResourceManager struct {
	mu     sync.RWMutex
	routes map[string]Adapter
}

// NewResourceManager returns an empty resource manager.
func NewResourceManager() *ResourceManager {
	return &ResourceManager{routes: make(map[string]Adapter)}
}

// Register binds an operation name (or "*" for the default) to an adapter.
func (rm *ResourceManager) Register(op string, a Adapter) {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.routes[op] = a
}

// Execute routes a command to its adapter.
func (rm *ResourceManager) Execute(cmd script.Command) error {
	rm.mu.RLock()
	a, ok := rm.routes[cmd.Op]
	if !ok {
		a, ok = rm.routes["*"]
	}
	rm.mu.RUnlock()
	if !ok {
		return fmt.Errorf("broker: no resource adapter for op %q", cmd.Op)
	}
	return a.Execute(cmd)
}

// Ops returns the registered operation names sorted (for diagnostics).
func (rm *ResourceManager) Ops() []string {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	out := make([]string, 0, len(rm.routes))
	for op := range rm.routes {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// State is the layer's runtime-model store managed by the State Manager.
type State struct {
	mu   sync.RWMutex
	vals map[string]any
}

// NewState returns an empty state store.
func NewState() *State {
	return &State{vals: make(map[string]any)}
}

// Set binds a state entry.
func (s *State) Set(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[key] = v
}

// Get returns a state entry and whether it exists.
func (s *State) Get(key string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.vals[key]
	return v, ok
}

// Delete removes a state entry.
func (s *State) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.vals, key)
}

// Keys returns the bound keys sorted.
func (s *State) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.vals))
	for k := range s.vals {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns the state as an expression scope.
func (s *State) Snapshot() expr.MapScope {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(expr.MapScope, len(s.vals))
	for k, v := range s.vals {
		out[k] = v
	}
	return out
}

// Step is one resource-command template inside an action. Op, Target and
// Args values may contain {placeholder} holes bound from the triggering
// call's arguments and the layer context.
type Step = script.Template

// Action realises one or more call operations by a sequence of resource
// steps, optionally guarded. Fn is the escape hatch for behaviour that
// cannot be expressed as templates; the model-based configurations built by
// the runtime factory use Steps exclusively.
type Action struct {
	Name  string
	Ops   []string  // call operations this action can realise
	Guard expr.Node // optional enabling condition
	Steps []Step
	// ForwardArgs copies the triggering call's arguments onto every
	// expanded step command (explicit step args win). It makes exact
	// pass-through configurations expressible in the middleware model.
	ForwardArgs bool
	Fn          func(b *Broker, cmd script.Command) error
}

// handles reports whether the action is declared for op.
func (a *Action) handles(op string) bool {
	for _, o := range a.Ops {
		if o == op || o == "*" {
			return true
		}
	}
	return false
}

// EventAction reacts to an event received from the resources: it may
// execute steps and/or forward the event upward.
type EventAction struct {
	Name    string
	Event   string // event name or "*"
	Guard   expr.Node
	Steps   []Step
	Forward bool // propagate to the upper layer after handling
}

// Config assembles a Broker layer. The runtime factory produces a Config
// from a middleware model; handcrafted setups can fill it directly.
type Config struct {
	Name         string
	Actions      []*Action
	EventActions []*EventAction
	Symptoms     []Symptom
	ChangePlans  []ChangePlan
	// Tracer and Metrics observe the layer; both may be nil (disabled),
	// in which case the call path pays only a nil check.
	Tracer  *obs.Tracer
	Metrics *obs.Metrics
	// Injector evaluates the layer's fault points (SiteStep, SiteEvent);
	// nil disables injection at the cost of a nil check.
	Injector *fault.Injector
	// Resilience configures per-step retry, timeout and per-operation
	// circuit breaking; the zero value disables all three.
	Resilience fault.Resilience
}

// Broker is the live Broker layer. Its call path takes no layer-wide lock:
// the action table is immutable after construction, and the state, context,
// resource and autonomic managers synchronise themselves. Resource adapters
// may therefore synchronously emit events (OnEvent) from within a step
// without deadlocking; such re-entrant events are queued and drained in
// order.
type Broker struct {
	name      string
	state     *State
	context   *policy.Context
	resources *ResourceManager
	actions   []*Action
	events    []*EventAction
	autonomic *Autonomic
	notify    func(Event) error // upward event propagation (to Controller)
	drain     *Drain

	tracer  *obs.Tracer
	mCalls  *obs.Counter
	mSteps  *obs.Counter
	mEvents *obs.Counter
	mPanics *obs.Counter

	injector    *fault.Injector
	retryer     *fault.Retryer
	stepTimeout time.Duration
	breakerCfg  fault.BreakerConfig
	breakerOpts []fault.BreakerOption
	brkMu       sync.Mutex
	breakers    map[string]*fault.Breaker
}

// New builds a Broker from a configuration. resources must carry the
// adapter bindings; notify may be nil for topmost/standalone use. A
// notify error fails the event being processed, like a failed event
// action.
func New(cfg Config, resources *ResourceManager, notify func(Event) error) *Broker {
	b := &Broker{
		name:      cfg.Name,
		state:     NewState(),
		context:   policy.NewContext(),
		resources: resources,
		actions:   cfg.Actions,
		events:    cfg.EventActions,
		notify:    notify,
		tracer:    cfg.Tracer,
		mCalls:    cfg.Metrics.Counter(obs.MBrokerCalls),
		mSteps:    cfg.Metrics.Counter(obs.MBrokerSteps),
		mEvents:   cfg.Metrics.Counter(obs.MBrokerEvents),
		mPanics:   cfg.Metrics.Counter(obs.MPanicsRecovered),

		injector:    cfg.Injector,
		retryer:     fault.NewRetryer(cfg.Resilience.Retry, fault.RetryMetrics(cfg.Metrics)),
		stepTimeout: cfg.Resilience.StepTimeout,
		breakerCfg:  cfg.Resilience.Breaker,
	}
	if b.breakerCfg.Threshold > 0 {
		b.breakers = make(map[string]*fault.Breaker)
		if cfg.Metrics != nil {
			b.breakerOpts = []fault.BreakerOption{fault.BreakerMetrics(cfg.Metrics)}
		}
	}
	b.autonomic = newAutonomic(b, cfg.Symptoms, cfg.ChangePlans)
	b.drain = NewDrain(SiteEvent, cfg.Metrics.Counter(obs.MBrokerReentrantDropped), b.mPanics)
	return b
}

// Name returns the layer instance name.
func (b *Broker) Name() string { return b.name }

// State returns the state manager.
func (b *Broker) State() *State { return b.state }

// Context returns the layer's context-variable store.
func (b *Broker) Context() *policy.Context { return b.context }

// Resources returns the resource manager.
func (b *Broker) Resources() *ResourceManager { return b.resources }

// Autonomic returns the autonomic manager.
func (b *Broker) Autonomic() *Autonomic { return b.autonomic }

// callScope builds the evaluation scope for a call: context variables,
// then op/target/args (args flattened by name, shadowing context).
func (b *Broker) callScope(cmd script.Command) expr.MapScope {
	scope := b.context.Snapshot()
	scope["op"] = cmd.Op
	scope["target"] = cmd.Target
	for k, v := range cmd.Args {
		scope[k] = v
	}
	return scope
}

// Call is the layer interface exposed to the Controller: it selects an
// action for the command via the layer's handlers and executes it.
func (b *Broker) Call(cmd script.Command) error {
	b.mCalls.Inc()
	sp := b.tracer.Start(obs.SpanBrokerCall)
	sp.SetStr("op", cmd.Op)
	defer sp.End()
	scope := b.callScope(cmd)
	action, err := b.selectAction(cmd.Op, scope)
	if err != nil {
		return err
	}
	if action.Fn != nil {
		return action.Fn(b, cmd)
	}
	var forward map[string]any
	if action.ForwardArgs {
		forward = cmd.Args
	}
	return b.runStepsForward(action.Name, action.Steps, scope, forward)
}

// selectAction picks the first declared action handling op whose guard is
// enabled.
func (b *Broker) selectAction(op string, scope expr.MapScope) (*Action, error) {
	for _, a := range b.actions {
		if !a.handles(op) {
			continue
		}
		if a.Guard != nil {
			ok, err := expr.EvalBool(a.Guard, expr.Env{Scope: scope, Funcs: expr.StdFuncs()})
			if err != nil {
				return nil, fmt.Errorf("broker %s: action %s: guard: %w", b.name, a.Name, err)
			}
			if !ok {
				continue
			}
		}
		return a, nil
	}
	return nil, fmt.Errorf("broker %s: no action for op %q", b.name, op)
}

// runSteps expands and executes an action's resource steps.
func (b *Broker) runSteps(actionName string, steps []Step, scope expr.MapScope) error {
	return b.runStepsForward(actionName, steps, scope, nil)
}

// runStepsForward is runSteps with optional call-argument forwarding.
func (b *Broker) runStepsForward(actionName string, steps []Step, scope expr.MapScope, forward map[string]any) error {
	for i, st := range steps {
		cmd, err := st.Expand(scope)
		if err != nil {
			return fmt.Errorf("broker %s: action %s: step %d: %w", b.name, actionName, i, err)
		}
		for k, v := range forward {
			if _, exists := cmd.Arg(k); !exists {
				cmd = cmd.WithArg(k, v)
			}
		}
		b.mSteps.Inc()
		if err := b.executeStep(cmd); err != nil {
			return fmt.Errorf("broker %s: action %s: step %d: %w", b.name, actionName, i, err)
		}
	}
	return nil
}

// executeStep runs one expanded resource command through the layer's
// resilience stack: the per-operation circuit breaker gates the call,
// transient failures (injected faults, timeouts, adapter errors wrapped
// fault.Transient) are retried per the configured policy, and the final
// outcome feeds the breaker. With a zero Resilience config this reduces to
// a handful of nil checks around the adapter call.
func (b *Broker) executeStep(cmd script.Command) error {
	if b.breakers == nil && b.retryer == nil {
		// No breaker to consult, no retry policy: skip the closure the
		// retryer would otherwise force onto the heap for every step.
		return b.executeOnce(cmd)
	}
	br := b.breakerFor(cmd.Op)
	if err := br.Allow(); err != nil {
		return fmt.Errorf("broker %s: op %q: %w", b.name, cmd.Op, err)
	}
	var err error
	if b.retryer == nil {
		err = b.executeOnce(cmd)
	} else {
		err = b.retryer.Do(func() error { return b.executeOnce(cmd) })
	}
	br.Report(err)
	return err
}

// breakerFor returns the circuit breaker guarding op, creating it on first
// use; nil when breaking is disabled.
func (b *Broker) breakerFor(op string) *fault.Breaker {
	if b.breakers == nil {
		return nil
	}
	b.brkMu.Lock()
	defer b.brkMu.Unlock()
	br, ok := b.breakers[op]
	if !ok {
		br = fault.NewBreaker(b.breakerCfg, b.breakerOpts...)
		b.breakers[op] = br
	}
	return br
}

// OpenBreakers returns the operations whose circuit is currently not
// closed, sorted. Checkpointing records them so a restored platform starts
// with those circuits tripped.
func (b *Broker) OpenBreakers() []string {
	if b.breakers == nil {
		return nil
	}
	b.brkMu.Lock()
	defer b.brkMu.Unlock()
	var out []string
	for op, br := range b.breakers {
		if br.State() != fault.Closed {
			out = append(out, op)
		}
	}
	sort.Strings(out)
	return out
}

// TripBreaker forces the circuit for op open, creating it on first use.
// No-op when circuit breaking is disabled. Restore uses it to reinstate
// breakers that were open when the checkpoint was cut.
func (b *Broker) TripBreaker(op string) {
	b.breakerFor(op).Trip()
}

// executeOnce is one attempt of one resource step: fault point, optional
// timeout bound, and the adapter hop. Without a step timeout the attempt
// runs directly on this goroutine — no closure, no allocation; with one it
// is wrapped for the goroutine WithTimeout runs it on.
func (b *Broker) executeOnce(cmd script.Command) error {
	if err := b.injector.Inject(SiteStep); err != nil {
		return err
	}
	if b.stepTimeout > 0 {
		return fault.WithTimeout(b.stepTimeout, func() error { return b.execAttempt(cmd) })
	}
	return b.execAttempt(cmd)
}

// execAttempt is the adapter hop wrapped in its spans when tracing is
// enabled. A panicking adapter is recovered here — inside the function
// WithTimeout runs on its own goroutine, so the recovery covers that
// goroutine too — and classified as a permanent fault.PanicError, which
// the retryer refuses to retry and the circuit breaker counts as a
// failure.
func (b *Broker) execAttempt(cmd script.Command) (err error) {
	defer func() {
		if r := recover(); r != nil {
			b.mPanics.Inc()
			err = fault.Recovered(SiteStep, r)
		}
	}()
	if b.tracer == nil {
		return b.resources.Execute(cmd)
	}
	step := b.tracer.Start(obs.SpanBrokerStep)
	step.SetStr("op", cmd.Op)
	res := b.tracer.Start(obs.SpanResourceExecute)
	err = b.resources.Execute(cmd)
	res.End()
	step.End()
	return err
}

// OnEvent is the layer's event entry point: resource adapters push events
// here. Events pass the SiteEvent fault point, then the layer's drain
// (drain.go): a re-entrant event — emitted by an action while this
// goroutine is already processing one — joins that goroutine's queue
// rather than recursing, while distinct goroutines (e.g. the runtime's pump
// shards) process their events concurrently; the downstream managers are
// individually locked. The caller that started the goroutine's drain gets
// the drain's first error, an upper layer's failure included, or a
// recovered fault.PanicError (re-entrant events queued behind a panic
// count in "broker.events.reentrant.dropped").
func (b *Broker) OnEvent(ev Event) error {
	return b.OnEventFrom(obs.GoID(), ev)
}

// OnEventFrom is OnEvent for callers that already know their goroutine ID
// (obs.GoID() of the calling goroutine, nothing else). The runtime's pump
// workers resolve their ID once per worker lifetime instead of paying the
// runtime.Stack parse on every delivery; everyone else goes through
// OnEvent.
func (b *Broker) OnEventFrom(g uint64, ev Event) (err error) {
	if err := b.injector.Inject(SiteEvent); err != nil {
		if errors.Is(err, fault.ErrDropped) {
			return nil // injected event loss: silently discarded
		}
		return err
	}
	q := b.drain.Start(g, ev)
	if q == nil {
		return nil // queued behind this goroutine's running drain
	}
	defer b.drain.Recover(q, &err)
	for next, ok := b.drain.Next(q); ok; next, ok = b.drain.Next(q) {
		if perr := b.processEvent(next); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// processEvent runs matching event actions, forwards upward when asked (or
// when unmatched), then lets the autonomic manager evaluate its symptoms.
// An event-action failure returns before the forward; otherwise the
// autonomic manager's error wins over the upper layer's.
func (b *Broker) processEvent(ev Event) error {
	b.mEvents.Inc()
	sp := b.tracer.Start(obs.SpanBrokerEvent)
	sp.SetStr("event", ev.Name)
	defer sp.End()
	scope := acquireScope()
	defer releaseScope(scope)
	b.context.SnapshotInto(scope)
	scope["event"] = boxString(ev.Name)
	for k, v := range ev.Attrs {
		scope[k] = v
	}
	matched := false
	forward := false
	var firstErr error
	for _, ea := range b.events {
		if ea.Event != "*" && ea.Event != ev.Name {
			continue
		}
		if ea.Guard != nil {
			ok, err := expr.EvalBool(ea.Guard, expr.Env{Scope: scope, Funcs: expr.StdFuncs()})
			if err != nil {
				return fmt.Errorf("broker %s: event action %s: guard: %w", b.name, ea.Name, err)
			}
			if !ok {
				continue
			}
		}
		matched = true
		forward = forward || ea.Forward
		if err := b.runSteps(ea.Name, ea.Steps, scope); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	var notifyErr error
	if (!matched || forward) && b.notify != nil {
		notifyErr = b.notify(ev)
	}
	if err := b.autonomic.Evaluate(); err != nil {
		return err
	}
	return notifyErr
}
