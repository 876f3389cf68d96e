// Event and scope pooling: the zero-allocation backbone of the event hot
// path. The runtime's pump posts one Event per resource notification, and
// profiling showed the steady-state allocation profile was dominated by
// three maps born and discarded per event: the event's Attrs payload, the
// per-goroutine re-entrancy queue entry in the drain (drain.go), and the
// evaluation scope processEvent builds for guards and step expansion. All
// three are recycled.
//
// Ownership of a pooled event is linear: the producer that acquired it
// either releases it itself (when the post was refused) or transfers it
// with the event — the pump releases after terminal accounting. A consumer
// that wants to retain a pooled event beyond its callback (an external
// sink, a test capturing events) must Copy it first; the dead-letter queue
// simply keeps the map, permanently retiring it from the pool.
package broker

import (
	"sync"

	"github.com/mddsm/mddsm/internal/expr"
)

var attrsPool = sync.Pool{New: func() any { return make(map[string]any, 8) }}

// AcquireAttrs returns an empty attribute map drawn from the shared event
// pool. Pair with ReleaseAttrs (directly or via Event.Release).
func AcquireAttrs() map[string]any { return attrsPool.Get().(map[string]any) }

// ReleaseAttrs clears m and returns it to the pool. Safe on nil.
func ReleaseAttrs(m map[string]any) {
	if m == nil {
		return
	}
	clear(m)
	attrsPool.Put(m)
}

// AcquireEvent returns a pooled event: its Attrs map comes from the shared
// pool and goes back when Release is called after delivery.
func AcquireEvent(name string) Event {
	return Event{Name: name, Attrs: AcquireAttrs(), pooled: true}
}

// PooledEvent wraps an attribute map previously obtained from AcquireAttrs
// (possibly nil) into an event that Release will recycle. The
// resources-to-broker event conversion uses it to reuse storage instead of
// copying the payload.
func PooledEvent(name string, attrs map[string]any) Event {
	return Event{Name: name, Attrs: attrs, pooled: true}
}

// Pooled reports whether Release would recycle the event's attribute map.
func (e Event) Pooled() bool { return e.pooled }

// Release returns a pooled event's attribute map to the pool; it is a
// no-op for ordinary events, so delivery paths may call it
// unconditionally. The map must not be used after Release.
func (e Event) Release() {
	if e.pooled {
		ReleaseAttrs(e.Attrs)
	}
}

// Copy returns an unpooled deep copy of the event, for consumers that need
// to retain it beyond the delivery callback.
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
