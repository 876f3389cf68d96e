package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/serve"
)

// eventsPerKind is how many events of each kind every tenant receives per
// burst. With 8 tenants and two kinds a burst is 400 events, whose drain
// takes far longer than drainPoll even after a several-fold speedup.
const eventsPerKind = 25

// drainPoll is the sleep between two reads of the tenants' accounting
// while a burst drains.
const drainPoll = 500 * time.Microsecond

// drainLimit bounds the wait for one burst; a burst that never drains is a
// failed run, not a hang.
const drainLimit = 30 * time.Second

// eventGen posts bursts through serve.Server.PostEvent and waits, with
// a sleeping poll of serve.Accounting, until every event of the burst has
// reached terminal accounting before it posts the next.
type eventGen struct {
	srv     *serve.Server
	tenants []*shadow
	r       *rand.Rand
	sent    map[string]int64
	settled int64 // failures, dead letters and drops seen so far
}

type posting struct {
	tenant string
	ev     broker.Event
}

func (d *eventGen) makeBurst() []posting {
	var b []posting
	for _, s := range d.tenants {
		for i := 0; i < eventsPerKind; i++ {
			acted := s.rec.unmatched
			if s.rec.acted != nil {
				acted = s.rec.acted
			}
			b = append(b, posting{s.tenant, acted(d.r, s)}, posting{s.tenant, s.rec.unmatched(d.r, s)})
		}
	}
	d.r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// burst posts one burst and waits for it to drain. Each post is one op.
func (d *eventGen) burst(ph *phase) {
	b := d.makeBurst()
	tr := ph.tr
	tr.nextOp()
	root := tr.start("events.burst")
	t0 := time.Now()
	for i := range b {
		p := &b[i]
		sp := tr.start("serve.post")
		tp := time.Now()
		err := d.srv.PostEvent(p.tenant, p.ev)
		ph.record(time.Since(tp))
		tr.end(sp)
		d.sent[p.tenant]++
		if err != nil {
			ph.fail(fmt.Sprintf("post %s to %s: %v", p.ev.Name, p.tenant, err))
		}
	}
	wait := tr.start("events.drain")
	ok := d.drain()
	tr.end(wait)
	ph.bursts = append(ph.bursts, time.Since(t0))
	tr.end(root)
	if !ok {
		ph.fail(fmt.Sprintf("burst %d did not drain within %v", len(ph.bursts), drainLimit))
		return
	}
	// Events that reached terminal accounting other than by delivery
	// are failed ops.
	var bad int64
	for _, s := range d.tenants {
		a, _ := d.srv.Accounting(s.tenant) // tenants exist for the generator's lifetime
		bad += a.Failures + a.DeadLettered + a.Dropped + a.Rejected
	}
	if bad > d.settled {
		for i := d.settled; i < bad; i++ {
			ph.fail(fmt.Sprintf("burst %d: event failed, dead-lettered, dropped or rejected", len(ph.bursts)))
		}
		d.settled = bad
	}
}

// drain waits until every tenant has accounted for every event sent.
func (d *eventGen) drain() bool {
	deadline := time.Now().Add(drainLimit)
	for {
		done := true
		for _, s := range d.tenants {
			a, err := d.srv.Accounting(s.tenant)
			if err != nil || a.Delivered+a.Failures+a.DeadLettered+a.Dropped < d.sent[s.tenant] {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(drainPoll)
	}
}

// checkAccounting asserts each tenant's exact ledger: posted equals what
// the generator sent, and every posted event was delivered.
func checkAccounting(srv *serve.Server, tenants []*shadow, sent map[string]int64) []string {
	var bad []string
	for _, s := range tenants {
		a, err := srv.Accounting(s.tenant)
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("accounting of %s: %v", s.tenant, err))
		case !a.Exact():
			bad = append(bad, fmt.Sprintf("accounting of %s is not exact: %+v", s.tenant, a))
		case a.Posted != sent[s.tenant]:
			bad = append(bad, fmt.Sprintf("%s posted %d, generator sent %d", s.tenant, a.Posted, sent[s.tenant]))
		case a.Delivered != a.Posted || a.Rejected != 0:
			bad = append(bad, fmt.Sprintf("%s lost events: %+v", s.tenant, a))
		}
	}
	return bad
}
