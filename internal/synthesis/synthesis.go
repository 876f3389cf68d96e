// Package synthesis implements the Synthesis layer of the MD-DSM reference
// architecture (paper §III, §V-A/V-B). The layer receives user-defined DSML
// models and turns them into control scripts for the Controller layer:
//
//   - the model comparator diffs the newly submitted model against the
//     currently running one (an empty model right after start);
//   - the change interpreter feeds each change, as an event, through a
//     labeled transition system encoding the domain-specific synthesis
//     semantics, collecting the emitted commands;
//   - the dispatcher hands the script to the Controller, commits the new
//     runtime model and publishes it back to the UI layer.
//
// Submissions are atomic: when conformance checking, interpretation or
// dispatch fails, the runtime model and the LTS state are left untouched.
package synthesis

import (
	"fmt"
	"strconv"
	"sync"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

// Dispatch delivers a synthesised control script to the layer below.
type Dispatch func(*script.Script) error

// ModelObserver receives the committed runtime model after each successful
// submission or restore (the dispatcher's "new runtime model to the UI"),
// with the change list that turned the previously committed model into it
// — none after a restore, which re-bases the layer. The model is the
// layer's own, not a copy: a committed model is never modified again, so
// observers may read and keep it but must not modify it.
type ModelObserver func(m *metamodel.Model, changes metamodel.ChangeList)

// Config assembles a Synthesis layer.
type Config struct {
	Name string
	// DSML is the application modeling language metamodel; submitted
	// models must conform to it.
	DSML *metamodel.Metamodel
	// LTS encodes the domain-specific synthesis semantics.
	LTS *lts.LTS
	// Tracer and Metrics observe the layer; both may be nil (disabled).
	Tracer  *obs.Tracer
	Metrics *obs.Metrics
	// Delta switches submissions to incremental delta validation: only the
	// objects a submission touches (plus the objects referring to them) are
	// re-checked, instead of re-validating the whole model. Verdicts and
	// problem reports are identical to full validation by construction.
	Delta bool
}

// Synthesis is the live Synthesis layer. Top-level operations (Submit and
// event processing) are serialised; events that arrive while an operation
// is in flight — typically raised by the very commands that operation
// dispatched — are deferred and drained when it completes, so synchronous
// event chains cannot deadlock the layer.
type Synthesis struct {
	name     string
	dsml     *metamodel.Metamodel
	instance *lts.Instance
	dispatch Dispatch
	observe  ModelObserver

	// Delta-validation state (nil when running in full-validation mode):
	// the validator tracks incremental indexes over the committed model and
	// is advanced on every successful submission.
	delta   *metamodel.DeltaValidator
	deltaCM *metamodel.CompiledMetamodel

	tracer   *obs.Tracer
	mSubmits *obs.Counter
	mEvents  *obs.Counter
	mPanics  *obs.Counter
	mDelta   *obs.Counter

	mu      sync.Mutex // guards current, instance, seq
	current *metamodel.Model
	seq     int

	opMu    sync.Mutex // guards busy and pending
	opCond  *sync.Cond
	busy    bool
	pending []broker.Event
}

// New builds a Synthesis layer. dispatch must be non-nil; observe may be
// nil. It refuses an invalid DSML or LTS. Both checks are memoised on the
// checked value (the DSML's compiled form, the LTS's accepted version),
// so the layers of many platforms sharing one DSML and LTS check them
// once.
func New(cfg Config, dispatch Dispatch, observe ModelObserver) (*Synthesis, error) {
	if cfg.DSML == nil {
		return nil, fmt.Errorf("synthesis %s: nil DSML metamodel", cfg.Name)
	}
	cm, err := cfg.DSML.Compiled()
	if err != nil {
		return nil, fmt.Errorf("synthesis %s: DSML metamodel: %w", cfg.Name, err)
	}
	if cfg.LTS == nil {
		return nil, fmt.Errorf("synthesis %s: nil LTS", cfg.Name)
	}
	if err := cfg.LTS.Validate(); err != nil {
		return nil, fmt.Errorf("synthesis %s: %w", cfg.Name, err)
	}
	if dispatch == nil {
		return nil, fmt.Errorf("synthesis %s: nil dispatch", cfg.Name)
	}
	s := &Synthesis{
		name:     cfg.Name,
		dsml:     cfg.DSML,
		instance: lts.NewInstance(cfg.LTS),
		dispatch: dispatch,
		observe:  observe,
		current:  metamodel.NewModel(cfg.DSML.Name),
		tracer:   cfg.Tracer,
		mSubmits: cfg.Metrics.Counter(obs.MSynthesisSubmits),
		mEvents:  cfg.Metrics.Counter(obs.MSynthesisEvents),
		mPanics:  cfg.Metrics.Counter(obs.MPanicsRecovered),
		mDelta:   cfg.Metrics.Counter(obs.MValidateDelta),
	}
	if cfg.Delta {
		s.deltaCM = cm
		s.delta = metamodel.NewDeltaValidator(cm, s.current)
	}
	s.opCond = sync.NewCond(&s.opMu)
	return s, nil
}

// begin claims the layer for a top-level operation, waiting for any other
// goroutine's operation to finish.
func (s *Synthesis) begin() {
	s.opMu.Lock()
	for s.busy {
		s.opCond.Wait()
	}
	s.busy = true
	s.opMu.Unlock()
}

// finish drains deferred events and releases the layer. Event-processing
// failures during the drain have no caller to report to and are dropped
// after the first one is noted.
func (s *Synthesis) finish() {
	for {
		s.opMu.Lock()
		if len(s.pending) == 0 {
			s.busy = false
			s.opCond.Broadcast()
			s.opMu.Unlock()
			return
		}
		next := s.pending[0]
		s.pending = s.pending[1:]
		s.opMu.Unlock()
		_ = s.processEvent(next)
	}
}

// Name returns the layer instance name.
func (s *Synthesis) Name() string { return s.name }

// DSML returns the application metamodel submissions are validated
// against. Hosts that derive external surfaces from the metamodel (the
// HTTP API provisioner) read it here when the platform has no UI layer.
func (s *Synthesis) DSML() *metamodel.Metamodel { return s.dsml }

// LTS returns the synthesis semantics the layer interprets. Platforms of
// one domain share the definition; each layer steps its own instance.
func (s *Synthesis) LTS() *lts.LTS { return s.instance.Def() }

// CurrentModel returns a deep copy of the running runtime model.
func (s *Synthesis) CurrentModel() *metamodel.Model {
	return s.Committed().Clone()
}

// Committed returns the running runtime model itself, without copying. It
// is shared and immutable: callers must not modify it.
func (s *Synthesis) Committed() *metamodel.Model {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current
}

// State returns the LTS instance's current state (diagnostics).
func (s *Synthesis) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.instance.State()
}

// Seq returns the submission sequence number (checkpointing).
func (s *Synthesis) Seq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// RestoreState reinstates a checkpointed layer state — the committed
// runtime model, the submission sequence number and the LTS position —
// without dispatching any scripts: the resources a restored platform
// attaches to are assumed to already realise the model (or to be
// re-provisioned out of band). The LTS state must be one the instance's
// definition declares.
//
// m must already conform to the layer's DSML, in validated form: a
// committed model, or one checked where it entered the process
// (runtime.DecodeSnapshot conforms a decoded snapshot's). RestoreState
// does not walk it again. m becomes the committed model itself, shared
// with the caller, who must not modify it afterwards. A restore re-bases
// the layer rather than committing a change: the observer receives the
// restored model with no change list, and hosts that stream changes diff
// it against what their watchers last saw (serve's ModelObserver.Attach).
func (s *Synthesis) RestoreState(m *metamodel.Model, seq int, ltsState string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.instance.Restore(ltsState); err != nil {
		return fmt.Errorf("synthesis %s: restore: %w", s.name, err)
	}
	s.current = m
	if s.delta != nil {
		// Incremental indexes are only valid relative to the model they were
		// built over; a restore re-bases them from scratch.
		s.delta = metamodel.NewDeltaValidator(s.deltaCM, m)
	}
	if seq > s.seq {
		s.seq = seq
	}
	if s.observe != nil {
		s.observe(m, nil)
	}
	return nil
}

// Submit runs one synthesis cycle for a new user model: conformance check,
// model comparison, change interpretation, dispatch and commit. It returns
// the dispatched script (possibly empty when the model is unchanged).
//
// Submit must not be called from within the dispatch path of another
// submission (it would wait on itself); events raised during dispatch are
// deferred and processed when the submission completes.
func (s *Synthesis) Submit(newModel *metamodel.Model) (*script.Script, error) {
	s.mSubmits.Inc()
	sp := s.tracer.Start(obs.SpanSynthSubmit)
	defer sp.End()
	s.begin()
	defer s.finish()
	return s.doSubmit(newModel)
}

func (s *Synthesis) doSubmit(newModel *metamodel.Model) (out *script.Script, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// A panic escaping interpretation or dispatch keeps the submission
	// atomic: the LTS rolls back to its pre-cycle state, the runtime model
	// stays untouched, and the caller gets a classified error.
	savedState := s.instance.State()
	defer func() {
		if r := recover(); r != nil {
			s.restore(savedState)
			s.mPanics.Inc()
			out, err = nil, fmt.Errorf("synthesis %s: %w", s.name, fault.Recovered("synthesis.submit", r))
		}
	}()

	var candidate *metamodel.Model
	var changes metamodel.ChangeList
	if s.delta != nil {
		// Incremental path: diff first, normalise the changes into the form
		// full validation would have produced, then validate only the
		// touched objects (and their referrers), skipping the whole-model
		// scan.
		s.mDelta.Inc()
		raw := metamodel.DiffWithContainment(s.current, newModel, s.dsml)
		changes = metamodel.NormalizeChanges(s.deltaCM, s.current, raw)
		candidate = s.current.Clone()
		if aerr := metamodel.Apply(candidate, changes); aerr != nil {
			return nil, fmt.Errorf("synthesis %s: model does not conform to %s: %w",
				s.name, s.dsml.Name, aerr)
		}
		if verr := s.delta.Validate(candidate, changes); verr != nil {
			return nil, fmt.Errorf("synthesis %s: model does not conform to %s: %w",
				s.name, s.dsml.Name, verr)
		}
	} else {
		// Validation normalises in place, so it runs on the layer's own
		// copy: the submitted model stays the caller's.
		candidate = newModel.Clone()
		if verr := candidate.Validate(s.dsml); verr != nil {
			return nil, fmt.Errorf("synthesis %s: model does not conform to %s: %w",
				s.name, s.dsml.Name, verr)
		}
		changes = metamodel.DiffWithContainment(s.current, candidate, s.dsml)
	}
	s.seq++
	out = script.New(s.name + "-" + strconv.Itoa(s.seq))
	if err := s.interpret(changes, candidate, out); err != nil {
		s.restore(savedState)
		return nil, fmt.Errorf("synthesis %s: %w", s.name, err)
	}
	if err := s.dispatch(out); err != nil {
		s.restore(savedState)
		return nil, fmt.Errorf("synthesis %s: dispatch: %w", s.name, err)
	}
	if s.delta != nil {
		s.delta.Advance(candidate, changes)
	}
	s.current = candidate
	if s.observe != nil {
		s.observe(candidate, changes)
	}
	return out, nil
}

func (s *Synthesis) restore(state string) {
	// The saved state was read from the instance, so Restore cannot fail.
	_ = s.instance.Restore(state)
}

// interpret feeds each change through the LTS and appends the emitted
// commands to out. Attribute changes on objects created in the same batch
// are folded into the creation event (their attributes ride along on the
// add-object scope), so the LTS sees one creation event per new object.
func (s *Synthesis) interpret(changes metamodel.ChangeList, newModel *metamodel.Model, out *script.Script) error {
	fresh := make(map[string]bool)
	for _, c := range changes {
		if c.Kind == metamodel.ChangeAddObject {
			fresh[c.ObjectID] = true
		}
	}
	for _, c := range changes {
		if fresh[c.ObjectID] &&
			(c.Kind == metamodel.ChangeSetAttr || c.Kind == metamodel.ChangeUnsetAttr) {
			continue
		}
		label, scope := describeChange(c, s.current, newModel)
		cmds, _, err := s.instance.Step(label, scope)
		if err != nil {
			return fmt.Errorf("change %s: %w", c, err)
		}
		out.Append(cmds...)
	}
	return nil
}

// describeChange maps a model change to its LTS event label and binding
// scope. Labels follow the pattern:
//
//	add-object:<Class>        remove-object:<Class>
//	set-attr:<Class>.<feat>   unset-attr:<Class>.<feat>
//	add-ref:<Class>.<feat>    remove-ref:<Class>.<feat>
//
// The scope binds the concerned object's attributes by name (taken from the
// new model, or from the old model for removals) plus id, class, feature,
// old, new and target — the specials win on collision.
func describeChange(c metamodel.Change, oldModel, newModel *metamodel.Model) (string, expr.MapScope) {
	scope := expr.MapScope{}
	src := newModel.Get(c.ObjectID)
	if src == nil {
		src = oldModel.Get(c.ObjectID)
	}
	if src != nil {
		for _, name := range src.AttrNames() {
			v, _ := src.Attr(name)
			scope[name] = v
		}
	}
	scope["id"] = c.ObjectID
	scope["class"] = c.Class
	var label string
	switch c.Kind {
	case metamodel.ChangeAddObject:
		label = "add-object:" + c.Class
	case metamodel.ChangeRemoveObject:
		label = "remove-object:" + c.Class
	case metamodel.ChangeSetAttr:
		label = "set-attr:" + c.Class + "." + c.Feature
		scope["feature"] = c.Feature
		scope["old"] = valueOrEmpty(c.Old)
		scope["new"] = valueOrEmpty(c.New)
	case metamodel.ChangeUnsetAttr:
		label = "unset-attr:" + c.Class + "." + c.Feature
		scope["feature"] = c.Feature
		scope["old"] = valueOrEmpty(c.Old)
	case metamodel.ChangeAddRef:
		label = "add-ref:" + c.Class + "." + c.Feature
		scope["feature"] = c.Feature
		scope["target"] = c.Target
		if t := newModel.Get(c.Target); t != nil {
			scope["targetClass"] = t.Class
		}
	case metamodel.ChangeRemoveRef:
		label = "remove-ref:" + c.Class + "." + c.Feature
		scope["feature"] = c.Feature
		scope["target"] = c.Target
	default:
		label = "change:" + c.Kind.String()
	}
	return label, scope
}

// valueOrEmpty keeps the scope total: unset old/new values bind to "".
func valueOrEmpty(v any) any {
	if v == nil {
		return ""
	}
	return v
}

// OnEvent handles an event forwarded up by the Controller layer: it is fed
// to the LTS with the label "event:<name>" and any emitted commands are
// dispatched as a script. The runtime model is not changed. Events arriving
// while a submission (or another event) is being processed are deferred and
// drained when it finishes; their processing errors are not reported.
func (s *Synthesis) OnEvent(ev broker.Event) error {
	s.opMu.Lock()
	if s.busy {
		s.pending = append(s.pending, ev)
		s.opMu.Unlock()
		return nil
	}
	s.busy = true
	s.opMu.Unlock()
	err := s.processEvent(ev)
	s.finish()
	return err
}

func (s *Synthesis) processEvent(ev broker.Event) (err error) {
	s.mEvents.Inc()
	sp := s.tracer.Start(obs.SpanSynthEvent)
	sp.SetStr("event", ev.Name)
	defer sp.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	scope := make(expr.MapScope, len(ev.Attrs)+1)
	for k, v := range ev.Attrs {
		scope[k] = v
	}
	scope["event"] = ev.Name
	savedState := s.instance.State()
	defer func() {
		if r := recover(); r != nil {
			s.restore(savedState)
			s.mPanics.Inc()
			err = fmt.Errorf("synthesis %s: event %s: %w", s.name, ev.Name,
				fault.Recovered("synthesis.event", r))
		}
	}()
	cmds, fired, err := s.instance.Step("event:"+ev.Name, scope)
	if err != nil {
		return fmt.Errorf("synthesis %s: event %s: %w", s.name, ev.Name, err)
	}
	if !fired || len(cmds) == 0 {
		return nil
	}
	s.seq++
	out := script.New(s.name + "-ev-" + strconv.Itoa(s.seq)).Append(cmds...)
	if err := s.dispatch(out); err != nil {
		s.restore(savedState)
		return fmt.Errorf("synthesis %s: event %s: dispatch: %w", s.name, ev.Name, err)
	}
	return nil
}
