package broker

import (
	"fmt"
	"sync"

	"github.com/mddsm/mddsm/internal/expr"
)

// Symptom names a condition over the layer context that triggers autonomic
// behaviour (paper Fig. 6: the Autonomic Manager's symptoms).
type Symptom struct {
	Name      string
	Condition expr.Node
}

// SymptomRule is a convenience constructor parsing the condition source.
// It panics on a bad static source.
func SymptomRule(name, condition string) Symptom {
	return Symptom{Name: name, Condition: expr.MustParse(condition)}
}

// ChangePlan describes how to handle a change request raised for a symptom:
// a sequence of resource steps executed for self-configuration.
type ChangePlan struct {
	Symptom string
	Steps   []Step
}

// ChangeRequest is one raised occurrence of a symptom, queued between
// detection and plan execution.
type ChangeRequest struct {
	Symptom string
	Seq     int
}

// Autonomic implements the Broker metamodel's Autonomic Manager:
// symptom detection → change request → change plan execution. A symptom
// fires on the rising edge of its condition and re-arms when the condition
// clears, so a persistent condition yields one request.
type Autonomic struct {
	broker   *Broker
	mu       sync.Mutex
	symptoms []Symptom
	plans    map[string]ChangePlan
	active   map[string]bool
	seq      int
	handled  []ChangeRequest
}

func newAutonomic(b *Broker, symptoms []Symptom, plans []ChangePlan) *Autonomic {
	a := &Autonomic{
		broker:   b,
		symptoms: symptoms,
		plans:    make(map[string]ChangePlan, len(plans)),
		active:   make(map[string]bool),
	}
	for _, p := range plans {
		a.plans[p.Symptom] = p
	}
	return a
}

// Handled returns the change requests executed so far, in order.
func (a *Autonomic) Handled() []ChangeRequest {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ChangeRequest(nil), a.handled...)
}

// Evaluate checks all symptoms against the current context, raising and
// executing change plans for newly active symptoms. It is invoked after
// every event and may also be called periodically by a monitor.
//
// Plan steps run outside the manager's lock so that step side effects
// (resource events re-entering the broker and re-evaluating symptoms) do
// not deadlock; rising-edge bookkeeping is committed before execution, so a
// re-entrant Evaluate sees the symptom as already handled.
func (a *Autonomic) Evaluate() error {
	if len(a.symptoms) == 0 {
		// No symptoms configured (the common case for plain event
		// platforms): skip the context snapshot entirely — Evaluate runs
		// after every event, on the hot path.
		return nil
	}
	scope := acquireScope()
	defer releaseScope(scope)
	a.broker.context.SnapshotInto(scope)
	env := expr.Env{Scope: scope, Funcs: expr.StdFuncs()}

	type firing struct {
		req  ChangeRequest
		plan ChangePlan
		has  bool
	}
	var firings []firing
	a.mu.Lock()
	for _, s := range a.symptoms {
		ok, err := expr.EvalBool(s.Condition, env)
		if err != nil {
			// A symptom over unbound context is simply not observable yet.
			continue
		}
		if !ok {
			a.active[s.Name] = false
			continue
		}
		if a.active[s.Name] {
			continue // already handled this occurrence
		}
		a.active[s.Name] = true
		a.seq++
		plan, hasPlan := a.plans[s.Name]
		firings = append(firings, firing{
			req:  ChangeRequest{Symptom: s.Name, Seq: a.seq},
			plan: plan,
			has:  hasPlan,
		})
	}
	a.mu.Unlock()

	for _, f := range firings {
		if !f.has {
			continue // symptom without a plan: detection only
		}
		if err := a.broker.runSteps("plan:"+f.req.Symptom, f.plan.Steps, scope); err != nil {
			return fmt.Errorf("broker %s: autonomic plan for %s: %w", a.broker.name, f.req.Symptom, err)
		}
		a.mu.Lock()
		a.handled = append(a.handled, f.req)
		a.mu.Unlock()
	}
	return nil
}
