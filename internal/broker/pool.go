// Scope pooling and name interning: the allocation-free backbone of event
// processing. Profiling showed the steady-state allocation profile of the
// event path was dominated by structures born and discarded per event: the
// per-goroutine re-entrancy queue entry in the drain (recycled in
// drain.go) and the evaluation scope processEvent builds for guards and
// step expansion (recycled here). Events themselves are not pooled: an
// event's attribute map belongs to its poster.
package broker

import (
	"sync"

	"github.com/mddsm/mddsm/internal/expr"
)

// Evaluation scopes. processEvent (and the autonomic evaluation behind it)
// used to snapshot the layer context into a fresh map per event; the
// snapshot now fills a pooled map that is cleared and recycled once the
// event's actions have run. Scopes never escape an event's processing, so
// the pool is safe.

var scopePool = sync.Pool{New: func() any { return make(expr.MapScope, 16) }}

func acquireScope() expr.MapScope { return scopePool.Get().(expr.MapScope) }

func releaseScope(s expr.MapScope) {
	clear(s)
	scopePool.Put(s)
}

// Interned boxed strings. Storing a string into a map[string]any boxes it,
// which allocates; event names recur from a small model-defined vocabulary,
// so the boxed values are interned. The table is capped as a backstop —
// past the cap (which no realistic model reaches) boxString degrades to a
// plain conversion.

const boxedNameCap = 4096

var (
	boxMu      sync.RWMutex
	boxedNames = make(map[string]any)
)

func boxString(s string) any {
	boxMu.RLock()
	v, ok := boxedNames[s]
	boxMu.RUnlock()
	if ok {
		return v
	}
	boxMu.Lock()
	defer boxMu.Unlock()
	if v, ok := boxedNames[s]; ok {
		return v
	}
	v = any(s)
	if len(boxedNames) < boxedNameCap {
		boxedNames[s] = v
	}
	return v
}
