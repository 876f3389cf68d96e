// Sharded event pump: the platform's asynchronous resource-event path.
//
// The pump is N independent shards, each a bounded queue drained by its
// own delivery goroutine. PostEvent routes every event to a shard by a
// hash of its name, so events sharing a name are delivered strictly in
// post order while events with different names flow concurrently. A slow
// resource adapter therefore stalls only the shard its events hash to,
// not the platform.
//
// A platform starts its pump on the first event posted after Start, so a
// platform that is never posted an event holds no shard queue or
// goroutine. Shutdown is a graceful drain: Stop closes the intake
// (further posts are counted rejections), delivers everything already
// queued, and after a bounded drain deadline (Config.DrainTimeout) counts
// anything still queued as a drop. Rejections are intake refusals — the event was never
// accepted; every accepted event is accounted exactly once, so
//
//	posted == delivered + deliver-failures + dead-lettered + dropped
//
// holds across the pump's whole lifetime.

package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/obs"
)

// pump is one running generation of the platform's sharded event pump.
// The first PostEvent on a started platform creates it, Stop drains and
// discards it, and the first post after the next Start creates a fresh
// one, so a drain can never race a new generation's intake.
type pump struct {
	p      *Platform
	drain  time.Duration
	shards []*shard

	// queued is the aggregate queue depth across shards, maintained as a
	// single atomic counter (incremented on accepted post, decremented on
	// dequeue) so the hot path never rescans every shard channel.
	queued atomic.Int64

	// mu serialises intake against shutdown: posts hold it shared, stop
	// holds it exclusively while flagging closed, after which no sender
	// can be in flight and the shard channels are safe to close.
	mu     sync.RWMutex
	closed bool
	// abandon flips when the drain deadline expires: workers then count
	// the remaining queue as drops instead of delivering it.
	abandon atomic.Bool
	wg      sync.WaitGroup
}

// shard is one bounded queue plus the per-shard instruments mirroring the
// pump's aggregate ones.
type shard struct {
	ch         chan broker.Event
	gDepth     *obs.Gauge
	mDelivered *obs.Counter
	mDropped   *obs.Counter
	mRejected  *obs.Counter
	hDeliver   *obs.Histogram
}

// newPump builds and launches a pump with n shards of cap events each.
func newPump(p *Platform, n, cap int) *pump {
	pu := &pump{p: p, drain: p.cfg.DrainTimeout}
	pu.shards = make([]*shard, n)
	for i := range pu.shards {
		pu.shards[i] = &shard{
			ch:         make(chan broker.Event, cap),
			gDepth:     p.metrics.Gauge(obs.ShardMetric(obs.MQueueDepth, i)),
			mDelivered: p.metrics.Counter(obs.ShardMetric(obs.MEventsDelivered, i)),
			mDropped:   p.metrics.Counter(obs.ShardMetric(obs.MEventsDropped, i)),
			mRejected:  p.metrics.Counter(obs.ShardMetric(obs.MEventsRejected, i)),
			hDeliver:   p.metrics.Histogram(obs.ShardMetric(obs.HPumpDeliver, i)),
		}
	}
	pu.wg.Add(n)
	for i := range pu.shards {
		go pu.run(pu.shards[i])
	}
	return pu
}

// shardFor routes an event to its shard by the FNV-1a hash of its name:
// same name, same shard — the ordering guarantee.
func (pu *pump) shardFor(ev broker.Event) *shard {
	if len(pu.shards) == 1 {
		return pu.shards[0]
	}
	return pu.shards[fnv32str(ev.Name)%uint32(len(pu.shards))]
}

func fnv32str(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// depth is the total number of queued events across shards.
func (pu *pump) depth() int64 { return pu.queued.Load() }

// post enqueues ev on its shard. It reports false — counting only the
// per-shard rejection — when the pump is closed or the shard queue is
// full; the caller owns the aggregate rejection accounting.
func (pu *pump) post(ev broker.Event) bool {
	pu.mu.RLock()
	defer pu.mu.RUnlock()
	if pu.closed {
		return false
	}
	sh := pu.shardFor(ev)
	select {
	case sh.ch <- ev:
		pu.p.mPosted.Inc()
		sh.gDepth.Set(int64(len(sh.ch)))
		pu.p.gDepth.Set(pu.queued.Add(1))
		return true
	default:
		sh.mRejected.Inc()
		return false
	}
}

// run is one shard's delivery loop: deliver until the channel is closed
// and drained, counting instead of delivering once the drain deadline has
// abandoned the queue. After each blocking receive the loop drains
// whatever else is already queued with non-blocking receives, so a busy
// shard amortises its gauge updates over the batch instead of paying them
// per wakeup.
func (pu *pump) run(sh *shard) {
	defer pu.wg.Done()
	// The worker goroutine is fixed for the pump's lifetime, so its ID —
	// needed by the Broker's re-entrancy drain — is resolved once here
	// instead of being re-parsed per event.
	g := obs.GoID()
	for ev := range sh.ch {
	batch:
		for {
			pu.dispatch(g, sh, ev)
			select {
			case next, ok := <-sh.ch:
				if !ok {
					return
				}
				ev = next
			default:
				break batch
			}
		}
		sh.gDepth.Set(int64(len(sh.ch)))
	}
}

// dispatch is one dequeued event's accounting: a drop once the drain
// deadline has abandoned the queue, a delivery otherwise.
func (pu *pump) dispatch(g uint64, sh *shard, ev broker.Event) {
	pu.p.gDepth.Set(pu.queued.Add(-1))
	if pu.abandon.Load() {
		sh.mDropped.Inc()
		pu.p.mDropped.Inc()
		return
	}
	pu.deliver(g, sh, ev)
}

// deliver hands one dequeued event to the Broker layer, recording the
// delivery span, latency and remaining depth. Delivered counts only
// successes; a failed or panicked delivery counts exactly once — as a
// dead-lettered event when the DLQ takes it, as a terminal
// deliver-failure otherwise. The pump degrades rather than dies: an
// asynchronous event has no caller to report to, so the loss is
// accounted and the next event delivered normally.
func (pu *pump) deliver(g uint64, sh *shard, ev broker.Event) {
	p := pu.p
	sh.gDepth.Set(int64(len(sh.ch)))
	sp := p.tracer.Start(obs.SpanPumpDeliver)
	sp.SetStr("event", ev.Name)
	start := time.Now()
	err := p.safeBrokerOnEvent(g, ev)
	d := time.Since(start)
	sh.hDeliver.Observe(d)
	p.hDeliver.Observe(d)
	sp.End()
	if err != nil {
		p.deadLetter(ev, err)
		return
	}
	sh.mDelivered.Inc()
	p.mDelivered.Inc()
}

// stop closes the intake and drains: queued events are delivered until the
// drain deadline, after which the remainder is abandoned as counted drops.
// stop returns once every shard worker has exited (an in-flight delivery
// is always waited out — a goroutine cannot be killed mid-adapter).
func (pu *pump) stop() {
	pu.mu.Lock()
	if pu.closed {
		pu.mu.Unlock()
		return
	}
	pu.closed = true
	pu.mu.Unlock()
	for _, sh := range pu.shards {
		close(sh.ch)
	}
	done := make(chan struct{})
	go func() {
		pu.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(pu.drain)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		pu.abandon.Store(true)
		<-done
	}
}
