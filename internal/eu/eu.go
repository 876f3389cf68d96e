// Package eu implements Execution Units (EUs) and the stack machine that
// runs them (paper §V-B). An EU is the executable body of a procedure: a
// sequence of statements over the Controller's domain-independent model of
// execution — broker invocations, DSC-based calls to dependency procedures,
// variable updates, event emission, conditionals and virtual-time delays.
//
// The machine is a procedure-level stack machine: a DSC-based call pushes
// the matched dependency procedure onto the stack and runs its EUs; a Done
// statement (or the end of the body) pops it.
package eu

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

// OpCode enumerates statement kinds.
type OpCode int

// Statement opcodes.
const (
	OpInvoke OpCode = iota + 1 // call the Broker layer
	OpCall                     // DSC-based call to a dependency procedure
	OpSet                      // bind a variable in the current scope
	OpEmit                     // emit an event to the Controller's event handler
	OpIf                       // conditional block
	OpDelay                    // charge virtual execution time
	OpDone                     // complete the current procedure (pop)
)

// String returns the opcode mnemonic.
func (o OpCode) String() string {
	switch o {
	case OpInvoke:
		return "invoke"
	case OpCall:
		return "call"
	case OpSet:
		return "set"
	case OpEmit:
		return "emit"
	case OpIf:
		return "if"
	case OpDelay:
		return "delay"
	case OpDone:
		return "done"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Statement is one instruction of an execution unit.
type Statement struct {
	Op OpCode
	// Text holds the broker operation (OpInvoke), event name (OpEmit),
	// variable name (OpSet) or DSC ID (OpCall).
	Text string
	// Target is the {var}-interpolated broker target (OpInvoke).
	Target string
	// Args are named argument expressions (OpInvoke, OpEmit).
	Args map[string]expr.Node
	// Expr is the value (OpSet), condition (OpIf) or millisecond count
	// (OpDelay).
	Expr expr.Node
	// Then/Else are the conditional branches (OpIf).
	Then []Statement
	Else []Statement
}

// Invoke builds a broker-invocation statement. kv alternates argument names
// and expression sources; it panics on bad static sources (DSK is static
// domain knowledge).
func Invoke(op, target string, kv ...string) Statement {
	return Statement{Op: OpInvoke, Text: op, Target: target, Args: parseKV(kv)}
}

// Call builds a DSC-based dependency call.
func Call(dscID string) Statement { return Statement{Op: OpCall, Text: dscID} }

// Set builds a variable binding statement.
func Set(name, exprSrc string) Statement {
	return Statement{Op: OpSet, Text: name, Expr: expr.MustParse(exprSrc)}
}

// Emit builds an event-emission statement.
func Emit(event string, kv ...string) Statement {
	return Statement{Op: OpEmit, Text: event, Args: parseKV(kv)}
}

// If builds a conditional statement.
func If(condSrc string, then []Statement, elseBranch ...Statement) Statement {
	return Statement{Op: OpIf, Expr: expr.MustParse(condSrc), Then: then, Else: elseBranch}
}

// Delay builds a virtual-time charge of the given expression, in
// milliseconds.
func Delay(millisSrc string) Statement {
	return Statement{Op: OpDelay, Expr: expr.MustParse(millisSrc)}
}

// Done builds an early-completion statement.
func Done() Statement { return Statement{Op: OpDone} }

func parseKV(kv []string) map[string]expr.Node {
	if len(kv) == 0 {
		return nil
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("odd key/value list: %v", kv))
	}
	args := make(map[string]expr.Node, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		args[kv[i]] = expr.MustParse(kv[i+1])
	}
	return args
}

// Unit is a named executable body.
type Unit struct {
	Name string
	Body []Statement
}

// NewUnit builds a unit from statements.
func NewUnit(name string, body ...Statement) *Unit {
	return &Unit{Name: name, Body: body}
}

// Broker is the surface the machine invokes for OpInvoke statements: the
// "set of exposed APIs" through which EUs reach the Broker layer.
type Broker interface {
	// Invoke executes one broker call.
	Invoke(cmd script.Command) error
}

// EventSink receives events emitted by running EUs.
type EventSink interface {
	// Emit delivers an event with named arguments.
	Emit(event string, args map[string]any)
}

// TimeCharger accounts virtual execution time charged by OpDelay.
type TimeCharger interface {
	// Charge records d of virtual execution time.
	Charge(d time.Duration)
}

// Frame is one procedure activation prepared for the machine: its unit,
// a label for diagnostics, a per-activation virtual-time charge, and the
// resolver that maps a dependency DSC ID to the next frame (the intent
// model performs this matching ahead of execution).
type Frame struct {
	// Label names the procedure for errors and traces.
	Label string
	// Unit is the executable body.
	Unit *Unit
	// EnterCharge is virtual time charged when the frame is pushed.
	EnterCharge time.Duration
	// Resolve maps a DSC-based call to the callee frame. A nil Resolve
	// makes every OpCall fail.
	Resolve func(dscID string) (*Frame, error)
}

// Limits bounds machine execution.
type Limits struct {
	// MaxDepth bounds the procedure stack (default 64).
	MaxDepth int
	// MaxSteps bounds total executed statements (default 1 << 20).
	MaxSteps int
}

func (l Limits) withDefaults() Limits {
	if l.MaxDepth <= 0 {
		l.MaxDepth = 64
	}
	if l.MaxSteps <= 0 {
		l.MaxSteps = 1 << 20
	}
	return l
}

// Machine executes frames. The zero value is unusable; construct with
// NewMachine.
type Machine struct {
	broker  Broker
	events  EventSink
	charger TimeCharger
	limits  Limits

	tracer  *obs.Tracer
	mSteps  *obs.Counter
	mPanics *obs.Counter

	depth atomic.Int64 // frames currently pushed across all in-flight runs
}

// runState is the per-Run execution state. Keeping it off the Machine makes
// Run safe to call concurrently and re-entrantly: an EU that emits an event
// whose action executes another script re-enters Run on the same machine.
type runState struct {
	steps int
	stack []string // procedure labels, for diagnostics
}

// NewMachine builds a machine. events and charger may be nil when the
// domain does not use them.
func NewMachine(broker Broker, events EventSink, charger TimeCharger, limits Limits) *Machine {
	return &Machine{
		broker:  broker,
		events:  events,
		charger: charger,
		limits:  limits.withDefaults(),
	}
}

// SetObs attaches an observability pair to the machine. Both arguments
// may be nil (disabled); the statement loop then pays only a nil check.
func (m *Machine) SetObs(t *obs.Tracer, mx *obs.Metrics) {
	m.tracer = t
	m.mSteps = mx.Counter(obs.MEUSteps)
	m.mPanics = mx.Counter(obs.MPanicsRecovered)
}

// Run executes the root frame with the given initial variables. The scope
// is shared down the call chain (the paper's EUs communicate through the
// layer's runtime model, which the scope stands in for).
//
// A panic escaping a statement — a poisoned expression function, a broken
// resolver — is recovered and classified as a fault.PanicError; the frame
// depth stays exact because push's own defers run during the unwind.
func (m *Machine) Run(root *Frame, vars map[string]any) (err error) {
	sp := m.tracer.Start(obs.SpanEURun)
	if root != nil {
		sp.SetStr("root", root.Label)
	}
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			m.mPanics.Inc()
			err = fault.Recovered("eu.run", r)
		}
	}()
	scope := make(expr.MapScope, len(vars)+4)
	for k, v := range vars {
		scope[k] = v
	}
	return m.push(&runState{}, root, scope)
}

// Depth returns the number of frames currently pushed across all in-flight
// runs (used by tests; zero when the machine is idle).
func (m *Machine) Depth() int { return int(m.depth.Load()) }

// errDone is an internal sentinel unwinding an OpDone.
var errDone = fmt.Errorf("done")

func (m *Machine) push(rs *runState, f *Frame, scope expr.MapScope) error {
	if f == nil || f.Unit == nil {
		return fmt.Errorf("nil frame or unit")
	}
	if len(rs.stack) >= m.limits.MaxDepth {
		return fmt.Errorf("procedure stack overflow at %q (depth %d)", f.Label, len(rs.stack))
	}
	rs.stack = append(rs.stack, f.Label)
	m.depth.Add(1)
	defer func() {
		rs.stack = rs.stack[:len(rs.stack)-1]
		m.depth.Add(-1)
	}()
	if f.EnterCharge > 0 && m.charger != nil {
		m.charger.Charge(f.EnterCharge)
	}
	err := m.exec(rs, f, f.Unit.Body, scope)
	if err == errDone {
		return nil
	}
	return err
}

func (m *Machine) exec(rs *runState, f *Frame, body []Statement, scope expr.MapScope) error {
	env := expr.Env{Scope: scope, Funcs: expr.StdFuncs()}
	for i := range body {
		st := &body[i]
		rs.steps++
		m.mSteps.Inc()
		if rs.steps > m.limits.MaxSteps {
			return fmt.Errorf("step budget exceeded in %q", f.Label)
		}
		switch st.Op {
		case OpInvoke:
			cmd, err := m.buildCommand(st, scope, env)
			if err != nil {
				return fmt.Errorf("%s: invoke %s: %w", f.Label, st.Text, err)
			}
			if m.broker == nil {
				return fmt.Errorf("%s: invoke %s: no broker attached", f.Label, st.Text)
			}
			if err := m.broker.Invoke(cmd); err != nil {
				return fmt.Errorf("%s: invoke %s: %w", f.Label, st.Text, err)
			}
		case OpCall:
			if f.Resolve == nil {
				return fmt.Errorf("%s: call %s: no dependency resolver", f.Label, st.Text)
			}
			callee, err := f.Resolve(st.Text)
			if err != nil {
				return fmt.Errorf("%s: call %s: %w", f.Label, st.Text, err)
			}
			if err := m.push(rs, callee, scope); err != nil {
				return err
			}
		case OpSet:
			v, err := expr.Eval(st.Expr, env)
			if err != nil {
				return fmt.Errorf("%s: set %s: %w", f.Label, st.Text, err)
			}
			scope[st.Text] = v
		case OpEmit:
			args, err := m.evalArgs(st.Args, env)
			if err != nil {
				return fmt.Errorf("%s: emit %s: %w", f.Label, st.Text, err)
			}
			if m.events != nil {
				m.events.Emit(st.Text, args)
			}
		case OpIf:
			cond, err := expr.EvalBool(st.Expr, env)
			if err != nil {
				return fmt.Errorf("%s: if: %w", f.Label, err)
			}
			branch := st.Else
			if cond {
				branch = st.Then
			}
			if err := m.exec(rs, f, branch, scope); err != nil {
				return err
			}
		case OpDelay:
			ms, err := expr.EvalNumber(st.Expr, env)
			if err != nil {
				return fmt.Errorf("%s: delay: %w", f.Label, err)
			}
			if m.charger != nil && ms > 0 {
				m.charger.Charge(time.Duration(ms * float64(time.Millisecond)))
			}
		case OpDone:
			return errDone
		default:
			return fmt.Errorf("%s: unknown opcode %v", f.Label, st.Op)
		}
	}
	return nil
}

func (m *Machine) buildCommand(st *Statement, scope expr.MapScope, env expr.Env) (script.Command, error) {
	target, err := expr.InterpolateString(st.Target, scope)
	if err != nil {
		return script.Command{}, err
	}
	cmd := script.NewCommand(st.Text, target)
	args, err := m.evalArgs(st.Args, env)
	if err != nil {
		return script.Command{}, err
	}
	for k, v := range args {
		cmd = cmd.WithArg(k, v)
	}
	return cmd, nil
}

func (m *Machine) evalArgs(args map[string]expr.Node, env expr.Env) (map[string]any, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make(map[string]any, len(args))
	for k, n := range args {
		v, err := expr.Eval(n, env)
		if err != nil {
			return nil, fmt.Errorf("arg %s: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}
