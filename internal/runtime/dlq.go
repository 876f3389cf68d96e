// Dead-letter queue: the terminal parking lot for events the pump could
// not deliver. PR 3's pump counted a failed delivery and dropped the event;
// the DLQ replaces that count-and-drop with a bounded, inspectable queue —
// the event survives the failure, an operator (or test) can examine it, and
// Platform.Redeliver replays it once the cause is fixed. Only when the DLQ
// itself is full (or disabled) does a failed delivery fall back to being a
// counted terminal loss ("pump.deliver.failures").

package runtime

import (
	"sync"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
)

// DeadLetter is one event parked after delivery exhausted its attempts.
type DeadLetter struct {
	// Event is the undeliverable event, verbatim.
	Event broker.Event
	// Reason is the final delivery error (a fault.PanicError's message for
	// panicked handlers).
	Reason string
	// Attempts counts delivery attempts so far, the original included.
	Attempts int
	// Seq orders entries by arrival in the queue (diagnostics).
	Seq int
}

// dlq is the platform's bounded dead-letter queue. Zero capacity disables
// it: add then always reports false and failures stay counted drops.
type dlq struct {
	mu      sync.Mutex
	cap     int
	seq     int
	entries []DeadLetter
}

func newDLQ(cap int) *dlq {
	return &dlq{cap: cap}
}

// add parks an event; false when the queue is full or disabled.
func (q *dlq) add(dl DeadLetter) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.entries) >= q.cap {
		return false
	}
	q.seq++
	dl.Seq = q.seq
	q.entries = append(q.entries, dl)
	return true
}

// drain pops every parked entry, oldest first.
func (q *dlq) drain() []DeadLetter {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := q.entries
	q.entries = nil
	return out
}

// snapshot copies the parked entries without consuming them.
func (q *dlq) snapshot() []DeadLetter {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]DeadLetter(nil), q.entries...)
}

// size is the number of parked entries.
func (q *dlq) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// DeadLetters returns the events currently parked in the platform's
// dead-letter queue, oldest first.
func (p *Platform) DeadLetters() []DeadLetter {
	return p.dlq.snapshot()
}

// Redeliver replays every currently dead-lettered event synchronously into
// the Broker layer, in arrival order. Successes count in "dlq.redelivered";
// an event that fails again re-enters the queue with its attempt count
// bumped ("dlq.requeued"). If the pump refilled the queue while the replay
// ran, the event is lost and counts in "dlq.lost". None of these touch the
// pump's ledger: a replayed event stays counted as dead-lettered, the
// classification its first failure gave it. Redeliver returns the number
// of events delivered and requeued.
func (p *Platform) Redeliver() (redelivered, requeued int) {
	entries := p.dlq.drain()
	p.gDLQDepth.Set(int64(p.dlq.size()))
	g := obs.GoID()
	for _, dl := range entries {
		err := p.safeBrokerOnEvent(g, dl.Event)
		if err == nil {
			redelivered++
			p.mRedelivered.Inc()
			continue
		}
		dl.Attempts++
		dl.Reason = err.Error()
		if p.dlq.add(dl) {
			requeued++
			p.mRequeued.Inc()
		} else {
			// Registered on first use: a replay is lost only when the
			// pump refills the queue while it runs.
			p.metrics.Counter(obs.MDLQLost).Inc()
		}
	}
	p.gDLQDepth.Set(int64(p.dlq.size()))
	return redelivered, requeued
}

// deadLetter parks an undeliverable event, falling back to a terminal
// counted loss when the queue is full or disabled. The pump's lifetime
// invariant stays exact either way:
//
//	posted = delivered + deliver-failures + dead-lettered + dropped
func (p *Platform) deadLetter(ev broker.Event, cause error) {
	if p.dlq.add(DeadLetter{Event: ev, Reason: cause.Error(), Attempts: 1}) {
		p.mDeadLettered.Inc()
		p.gDLQDepth.Set(int64(p.dlq.size()))
		return
	}
	p.mDeliverFail.Inc()
}

// safeBrokerOnEvent hands one event to the Broker layer with last-resort
// panic isolation: the layers recover their own panics, but a poisoned
// callback wired outside them (an external sink, a handcrafted notify)
// must still not kill a pump worker. g is the calling goroutine's ID
// (obs.GoID()), resolved by the caller — pump workers pay the parse once
// per worker, not once per event.
func (p *Platform) safeBrokerOnEvent(g uint64, ev broker.Event) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.mPanics.Inc()
			err = fault.Recovered("pump.deliver", r)
		}
	}()
	return p.Broker.OnEventFrom(g, ev)
}
