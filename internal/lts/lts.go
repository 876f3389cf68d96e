// Package lts implements labeled transition systems, the formalism the
// MD-DSM Synthesis layer uses to encode domain-specific synthesis semantics
// (paper §V-A/§V-B, following Allison et al. [11]). A domain's DSK contains
// one or more LTSs; the change interpreter feeds model-change events through
// an LTS instance, and enabled transitions emit control-script commands.
package lts

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/script"
)

// CommandTemplate is a control-script command with {placeholder} holes that
// are filled from the event scope when the owning transition fires.
type CommandTemplate struct {
	Op     string
	Target string
	Args   map[string]string
}

// Transition moves the system from From to To when an event matching Event
// occurs and Guard (if any) holds. Event patterns are exact labels, a "*"
// wildcard, or a prefix pattern ending in "*" such as "add-object:*".
type Transition struct {
	From  string
	Event string
	Guard expr.Node // nil means always enabled
	To    string
	Emit  []CommandTemplate
}

// LTS is a labeled transition system definition. It is built with
// AddState, AddTransition and On and is immutable from then on, so any
// number of Instances — one per platform — may share it.
type LTS struct {
	Name        string
	Initial     string
	states      map[string]bool
	transitions []Transition

	// version counts AddState and AddTransition calls; valid records the
	// version and initial state Validate last accepted, so re-validating
	// an unchanged definition costs one comparison.
	version uint64
	valid   atomic.Pointer[validation]
}

// validation is one accepted Validate verdict.
type validation struct {
	version uint64
	initial string
}

// New creates an LTS with the given initial state.
func New(name, initial string) *LTS {
	l := &LTS{Name: name, Initial: initial, states: make(map[string]bool)}
	l.states[initial] = true
	return l
}

// AddState declares a state. Declaring the same state twice is harmless.
func (l *LTS) AddState(names ...string) *LTS {
	for _, n := range names {
		l.states[n] = true
	}
	l.version++
	return l
}

// AddTransition appends a transition. Transitions are tried in declaration
// order; the first enabled match fires.
func (l *LTS) AddTransition(t Transition) *LTS {
	l.transitions = append(l.transitions, t)
	l.version++
	return l
}

// On is a convenience for the common transition shape: from --event--> to,
// optionally guarded by guardSrc (parsed with expr), emitting templates.
// It panics on an unparsable guard; guards are static domain knowledge.
func (l *LTS) On(from, event, guardSrc, to string, emit ...CommandTemplate) *LTS {
	var guard expr.Node
	if guardSrc != "" {
		guard = expr.MustParse(guardSrc)
	}
	l.AddState(from, to)
	return l.AddTransition(Transition{From: from, Event: event, Guard: guard, To: to, Emit: emit})
}

// States returns the number of declared states.
func (l *LTS) States() int { return len(l.states) }

// EventPatterns returns the event pattern of every transition in
// declaration order (conformance checking walks these).
func (l *LTS) EventPatterns() []string {
	out := make([]string, len(l.transitions))
	for i, t := range l.transitions {
		out[i] = t.Event
	}
	return out
}

// EmittedOps returns the distinct literal operation names the LTS can emit
// (templates whose op contains placeholders are skipped), sorted. Coverage
// analysis checks each against the Controller's routing.
func (l *LTS) EmittedOps() []string {
	set := make(map[string]bool)
	for _, t := range l.transitions {
		for _, tpl := range t.Emit {
			if !strings.Contains(tpl.Op, "{") {
				set[tpl.Op] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for op := range set {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// Transitions returns the number of transitions.
func (l *LTS) Transitions() int { return len(l.transitions) }

// Validate checks that all transition endpoints are declared states and the
// initial state exists. An accepted definition is checked once: until it
// is changed again, later calls return at once.
func (l *LTS) Validate() error {
	if v := l.valid.Load(); v != nil && v.version == l.version && v.initial == l.Initial {
		return nil
	}
	if !l.states[l.Initial] {
		return fmt.Errorf("lts %s: initial state %q not declared", l.Name, l.Initial)
	}
	for i, t := range l.transitions {
		if !l.states[t.From] {
			return fmt.Errorf("lts %s: transition %d: unknown source state %q", l.Name, i, t.From)
		}
		if !l.states[t.To] {
			return fmt.Errorf("lts %s: transition %d: unknown target state %q", l.Name, i, t.To)
		}
		if t.Event == "" {
			return fmt.Errorf("lts %s: transition %d: empty event pattern", l.Name, i)
		}
	}
	l.valid.Store(&validation{version: l.version, initial: l.Initial})
	return nil
}

// matchEvent reports whether pattern accepts label.
func matchEvent(pattern, label string) bool {
	if pattern == "*" || pattern == label {
		return true
	}
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(label, pattern[:len(pattern)-1])
	}
	return false
}

// Instance is a running occurrence of an LTS with a current state.
type Instance struct {
	def   *LTS
	state string
}

// NewInstance creates an instance positioned at the initial state.
func NewInstance(def *LTS) *Instance {
	return &Instance{def: def, state: def.Initial}
}

// Def returns the definition the instance runs.
func (in *Instance) Def() *LTS { return in.def }

// State returns the current state.
func (in *Instance) State() string { return in.state }

// Reset returns the instance to the initial state.
func (in *Instance) Reset() { in.state = in.def.Initial }

// Restore moves the instance to a previously observed state. It returns an
// error for undeclared states, so callers cannot wedge the instance.
func (in *Instance) Restore(state string) error {
	if !in.def.states[state] {
		return fmt.Errorf("lts %s: unknown state %q", in.def.Name, state)
	}
	in.state = state
	return nil
}

// Step feeds an event with a binding scope. If a transition fires, Step
// returns the emitted commands (with placeholders substituted) and true.
// If no transition is enabled, it returns (nil, false, nil): unmatched
// events are not errors — the synthesis process simply has nothing to do.
func (in *Instance) Step(event string, scope expr.MapScope) ([]script.Command, bool, error) {
	for _, t := range in.def.transitions {
		if t.From != in.state || !matchEvent(t.Event, event) {
			continue
		}
		if t.Guard != nil {
			ok, err := expr.EvalBool(t.Guard, expr.Env{Scope: scope, Funcs: expr.StdFuncs()})
			if err != nil {
				return nil, false, fmt.Errorf("lts %s: state %s: event %s: guard: %w",
					in.def.Name, in.state, event, err)
			}
			if !ok {
				continue
			}
		}
		cmds, err := expand(t.Emit, scope)
		if err != nil {
			return nil, false, fmt.Errorf("lts %s: state %s: event %s: %w",
				in.def.Name, in.state, event, err)
		}
		in.state = t.To
		return cmds, true, nil
	}
	return nil, false, nil
}

// expand instantiates command templates against the scope.
func expand(templates []CommandTemplate, scope expr.MapScope) ([]script.Command, error) {
	if len(templates) == 0 {
		return nil, nil
	}
	out := make([]script.Command, 0, len(templates))
	for _, tpl := range templates {
		op, err := substitute(tpl.Op, scope)
		if err != nil {
			return nil, err
		}
		target, err := substitute(tpl.Target, scope)
		if err != nil {
			return nil, err
		}
		cmd := script.NewCommand(fmt.Sprintf("%v", op), fmt.Sprintf("%v", target))
		for k, v := range tpl.Args {
			val, err := substitute(v, scope)
			if err != nil {
				return nil, err
			}
			cmd = cmd.WithArg(k, val)
		}
		out = append(out, cmd)
	}
	return out, nil
}

// substitute fills {name} holes from the scope; see expr.Interpolate.
func substitute(tpl string, scope expr.MapScope) (any, error) {
	return expr.Interpolate(tpl, scope)
}
