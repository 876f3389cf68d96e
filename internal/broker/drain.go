package broker

import (
	"sync"

	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
)

// Drain is a layer's per-goroutine event drain, shared by the Broker and
// the Controller. An event that arrives on a goroutine already draining —
// emitted by an action while an earlier event is processed — joins that
// goroutine's queue instead of recursing, so each goroutine processes its
// events in arrival order; distinct goroutines (the runtime's pump shards)
// drain concurrently.
//
// A layer drains with
//
//	q := d.Start(g, ev)
//	if q == nil {
//		return nil // queued behind g's running drain
//	}
//	defer d.Recover(q, &err)
//	for next, ok := d.Next(q); ok; next, ok = d.Next(q) {
//		// process next; keep the first error in err
//	}
//
// The loop stays in the layer so that the layer calls its own event
// processing directly. A loop here would add stack frames under every
// goroutine-ID read made while an event is processed, and obs.GoID's
// runtime.Stack parse costs in proportion to the stack's depth.
type Drain struct {
	site    string
	dropped *obs.Counter
	panics  *obs.Counter

	mu     sync.Mutex
	queues map[uint64]*DrainQueue
}

// DrainQueue is the queue of one goroutine's running drain.
type DrainQueue struct {
	g     uint64
	items []Event
	head  int
}

// NewDrain returns a drain whose recovered panics are fault.PanicErrors at
// site, counted in panics; the re-entrant events still queued behind a
// panic count in dropped.
func NewDrain(site string, dropped, panics *obs.Counter) *Drain {
	return &Drain{site: site, dropped: dropped, panics: panics}
}

// Start queues ev on goroutine g, which must be obs.GoID() of the caller.
// When g is already draining, ev joins its queue and Start returns nil.
// Otherwise Start returns g's new queue, holding ev, for the caller to
// drain with Next.
func (d *Drain) Start(g uint64, ev Event) *DrainQueue {
	d.mu.Lock()
	defer d.mu.Unlock()
	if q, ok := d.queues[g]; ok {
		q.items = append(q.items, ev)
		return nil
	}
	if d.queues == nil {
		d.queues = make(map[uint64]*DrainQueue)
	}
	q := qPool.Get().(*DrainQueue)
	q.g = g
	q.items = append(q.items, ev)
	d.queues[g] = q
	return q
}

// Next returns q's next event. Once q is empty it ends the drain —
// removing and recycling q — and reports false.
func (d *Drain) Next(q *DrainQueue) (Event, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if q.head == len(q.items) {
		d.end(q)
		return Event{}, false
	}
	ev := q.items[q.head]
	q.items[q.head] = Event{}
	q.head++
	return ev, true
}

// Recover, deferred by the caller of Start, turns a panic escaping the
// drain into a fault.PanicError in *err. It ends the drain (a queue entry
// left behind would silently swallow every later event on that goroutine
// ID) and counts the events still queued behind the poisoned one as
// dropped.
func (d *Drain) Recover(q *DrainQueue, err *error) {
	r := recover()
	if r == nil {
		return
	}
	d.mu.Lock()
	dropped := len(q.items) - q.head
	d.end(q)
	d.mu.Unlock()
	d.dropped.Add(int64(dropped))
	d.panics.Inc()
	*err = fault.Recovered(d.site, r)
}

// end removes q from the drain and recycles it; d.mu must be held.
func (d *Drain) end(q *DrainQueue) {
	delete(d.queues, q.g)
	clear(q.items)
	q.items = q.items[:0]
	q.head = 0
	qPool.Put(q)
}

var qPool = sync.Pool{New: func() any { return new(DrainQueue) }}
