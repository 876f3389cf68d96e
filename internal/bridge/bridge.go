// Package bridge connects domain-specific middleware platforms: events
// observed at the top of one platform are translated, through declarative
// mapping rules, into commands on another platform. The paper lists
// interoperability across different domain-specific middleware platforms
// as an open direction (§IX), pointing at the models@runtime connector
// synthesis of Bencomo et al. [29]; this package realises a rule-based
// variant of that idea on MD-DSM platforms.
//
// A bridge never bypasses the target platform's layers: translated
// commands enter through the target Controller's normal command pipeline
// (classification included), so policies and intent generation still
// apply.
package bridge

import (
	"fmt"
	"sync"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/expr"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

// Dispatch delivers a translated command to a target platform (or any
// other command consumer).
type Dispatch func(cmd script.Command) error

// PlatformTarget adapts a platform so translated commands run through its
// Controller layer.
func PlatformTarget(p *runtime.Platform) Dispatch {
	return func(cmd script.Command) error {
		return p.Execute(script.New("bridge").Append(cmd))
	}
}

// Rule maps one source-platform event to one command on a target. The
// command template's placeholders bind the event's attributes (plus
// "event" for the event name).
type Rule struct {
	Name    string
	Event   string // source event name, or "*"
	Guard   expr.Node
	Command script.Template
	Target  Dispatch
}

// MapRule is a convenience constructor parsing the guard source (empty
// means unguarded). It panics on a bad static guard.
func MapRule(name, event, guardSrc string, cmd script.Template, target Dispatch) Rule {
	var guard expr.Node
	if guardSrc != "" {
		guard = expr.MustParse(guardSrc)
	}
	return Rule{Name: name, Event: event, Guard: guard, Command: cmd, Target: target}
}

// Bridge translates events between platforms. Attach it to one or more
// source platforms; rules fire in declaration order and every matching
// rule runs (a single event may fan out to several targets).
type Bridge struct {
	name string

	mu       sync.Mutex
	rules    []Rule
	failures []string
}

// New creates an empty bridge.
func New(name string) *Bridge {
	return &Bridge{name: name}
}

// AddRule appends a mapping rule.
func (b *Bridge) AddRule(r Rule) *Bridge {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rules = append(b.rules, r)
	return b
}

// Attach subscribes the bridge to a source platform's top-of-stack events.
func (b *Bridge) Attach(source *runtime.Platform) {
	source.SetExternalEvents(b.OnEvent)
}

// Failures returns the accumulated translation failures (an asynchronous
// bridge has no caller to report to, so failures are retained for
// inspection), most recent last.
func (b *Bridge) Failures() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.failures...)
}

// OnEvent translates one source event through the rule table.
func (b *Bridge) OnEvent(ev broker.Event) {
	scope := make(expr.MapScope, len(ev.Attrs)+1)
	for k, v := range ev.Attrs {
		scope[k] = v
	}
	scope["event"] = ev.Name

	b.mu.Lock()
	rules := make([]Rule, len(b.rules))
	copy(rules, b.rules)
	b.mu.Unlock()

	for _, r := range rules {
		if r.Event != "*" && r.Event != ev.Name {
			continue
		}
		if r.Guard != nil {
			ok, err := expr.EvalBool(r.Guard, expr.Env{Scope: scope, Funcs: expr.StdFuncs()})
			if err != nil {
				b.recordFailure(r.Name, ev.Name, fmt.Errorf("guard: %w", err))
				continue
			}
			if !ok {
				continue
			}
		}
		cmd, err := r.Command.Expand(scope)
		if err != nil {
			b.recordFailure(r.Name, ev.Name, err)
			continue
		}
		if r.Target == nil {
			b.recordFailure(r.Name, ev.Name, fmt.Errorf("no target"))
			continue
		}
		if err := r.Target(cmd); err != nil {
			b.recordFailure(r.Name, ev.Name, err)
		}
	}
}

func (b *Bridge) recordFailure(rule, event string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = append(b.failures,
		fmt.Sprintf("bridge %s: rule %s on %s: %v", b.name, rule, event, err))
}
