// Package policy implements the policy engine used across the MD-DSM
// layers. Policies are prioritised condition→effect rules evaluated against
// a context-variable store; they drive command classification in the
// Controller (Case 1 predefined actions vs Case 2 dynamic intent models,
// paper §VI), action selection in the Broker, and intent-model selection.
package policy

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/mddsm/mddsm/internal/expr"
)

// Context is a thread-safe store of context variables. The middleware keeps
// one per layer; monitors and autonomic managers write into it, and policy
// evaluation reads a snapshot.
type Context struct {
	mu   sync.RWMutex
	vars map[string]any
}

// NewContext returns an empty context.
func NewContext() *Context {
	return &Context{vars: make(map[string]any)}
}

// Set binds a context variable.
func (c *Context) Set(name string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vars[name] = v
}

// Get returns a context variable and whether it is bound.
func (c *Context) Get(name string) (any, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.vars[name]
	return v, ok
}

// Delete removes a context variable.
func (c *Context) Delete(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.vars, name)
}

// Snapshot returns a copy of the variables as an expression scope.
func (c *Context) Snapshot() expr.MapScope {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(expr.MapScope, len(c.vars))
	for k, v := range c.vars {
		out[k] = v
	}
	return out
}

// SnapshotInto copies the variables into dst (existing entries are kept,
// same-name entries overwritten). Hot paths reuse a pooled scope across
// snapshots instead of allocating one per call.
func (c *Context) SnapshotInto(dst expr.MapScope) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for k, v := range c.vars {
		dst[k] = v
	}
}

// Effect is one named decision output produced by a policy.
type Effect struct {
	Key   string
	Value any
}

// Policy is a prioritised rule. When Condition evaluates to true, the
// policy's effects are contributed to the decision.
type Policy struct {
	Name      string
	Priority  int // higher evaluates first
	Condition expr.Node
	Effects   []Effect
}

// Rule is a convenience constructor parsing the condition source. It panics
// on a syntactically invalid condition: policies are static domain
// knowledge, so that is a programming error.
func Rule(name string, priority int, condition string, effects ...Effect) Policy {
	return Policy{
		Name:      name,
		Priority:  priority,
		Condition: expr.MustParse(condition),
		Effects:   effects,
	}
}

// Decision is the merged outcome of a policy evaluation round. For each key
// the highest-priority applicable policy wins.
type Decision struct {
	values  map[string]any
	applied []string
}

// Get returns a decision value and whether any policy produced it.
func (d Decision) Get(key string) (any, bool) {
	v, ok := d.values[key]
	return v, ok
}

// String returns a decision value as a string (def when absent or not a
// string).
func (d Decision) String(key, def string) string {
	if s, ok := d.values[key].(string); ok {
		return s
	}
	return def
}

// Bool returns a decision value as a bool (def when absent).
func (d Decision) Bool(key string, def bool) bool {
	if b, ok := d.values[key].(bool); ok {
		return b
	}
	return def
}

// Number returns a decision value as a float64 (def when absent).
func (d Decision) Number(key string, def float64) float64 {
	switch n := d.values[key].(type) {
	case float64:
		return n
	case int:
		return float64(n)
	case int64:
		return float64(n)
	default:
		return def
	}
}

// Applied returns the names of the policies whose condition held, in
// evaluation order.
func (d Decision) Applied() []string { return append([]string(nil), d.applied...) }

// Engine evaluates a fixed set of policies. The zero value is unusable;
// construct with NewEngine.
type Engine struct {
	policies []Policy
}

// NewEngine builds an engine. Policies are sorted by descending priority,
// ties broken by name for determinism.
func NewEngine(policies ...Policy) *Engine {
	sorted := append([]Policy(nil), policies...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Priority != sorted[j].Priority {
			return sorted[i].Priority > sorted[j].Priority
		}
		return sorted[i].Name < sorted[j].Name
	})
	return &Engine{policies: sorted}
}

// Len returns the number of policies.
func (e *Engine) Len() int { return len(e.policies) }

// Names returns the policy names in evaluation order.
func (e *Engine) Names() []string {
	out := make([]string, len(e.policies))
	for i, p := range e.policies {
		out[i] = p.Name
	}
	return out
}

// Decide evaluates every policy against the scope and merges effects;
// for each effect key the first (highest-priority) applicable policy wins.
//
// A policy whose condition references an unbound context variable is
// considered not applicable — middleware frequently runs with partial
// context — while any other evaluation error aborts the decision.
func (e *Engine) Decide(scope expr.Scope) (Decision, error) {
	d := Decision{values: make(map[string]any)}
	env := expr.Env{Scope: scope, Funcs: expr.StdFuncs()}
	for _, p := range e.policies {
		ok, err := expr.EvalBool(p.Condition, env)
		if err != nil {
			if errors.Is(err, expr.ErrUnboundIdentifier) {
				continue
			}
			return Decision{}, fmt.Errorf("policy %s: %w", p.Name, err)
		}
		if !ok {
			continue
		}
		d.applied = append(d.applied, p.Name)
		for _, eff := range p.Effects {
			if _, taken := d.values[eff.Key]; !taken {
				d.values[eff.Key] = eff.Value
			}
		}
	}
	return d, nil
}
