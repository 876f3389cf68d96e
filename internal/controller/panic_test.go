package controller

import (
	"sync"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

// panicBroker panics on a designated op — a poisoned downstream layer.
type panicBroker struct {
	panicOn string
	reenter func(cmd script.Command) error
}

func (b *panicBroker) Call(cmd script.Command) error {
	if cmd.Op == b.panicOn {
		panic("poisoned broker call")
	}
	if b.reenter != nil {
		return b.reenter(cmd)
	}
	return nil
}

// TestProcessPanicBecomesError: a panic below Process (here the BrokerAPI)
// is recovered into a classified PanicError instead of unwinding through
// the dispatch path.
func TestProcessPanicBecomesError(t *testing.T) {
	m := obs.NewMetrics()
	cfg := Config{
		Name:    "c",
		Metrics: m,
		Actions: []*Action{{
			Name: "boom", Ops: []string{"boom"},
			Steps: []script.Template{{Op: "explode", Target: "{target}"}},
		}},
	}
	c, _ := newController(t, cfg, &panicBroker{panicOn: "explode"})
	err := c.Process(script.NewCommand("boom", "svc:1"))
	if !fault.IsPanic(err) {
		t.Fatalf("Process error = %v, want a recovered PanicError", err)
	}
	if got := m.CounterValue(obs.MPanicsRecovered); got != 1 {
		t.Errorf("panic.recovered = %d, want 1", got)
	}
}

// TestOnEventDrainPanicCleansQueue is the regression test for the
// re-entrancy leak mirrored from the Broker layer: a panic escaping the
// drain must clean the goroutine's queue entry, count the dropped
// re-entrant events, and leave the layer able to process later events.
func TestOnEventDrainPanicCleansQueue(t *testing.T) {
	m := obs.NewMetrics()
	var c *Controller
	fb := &panicBroker{reenter: func(cmd script.Command) error {
		if cmd.Op == "reenter" {
			return c.OnEvent(broker.Event{Name: "child"})
		}
		return nil
	}}
	var (
		mu       sync.Mutex
		panicked = true
		notified []string
	)
	c = New(Config{
		Name:    "c",
		Metrics: m,
		EventActions: []*EventAction{{
			Name: "boomAct", Event: "boom",
			Steps:   []script.Template{{Op: "reenter", Target: "x"}},
			Forward: true,
		}},
	}, fb, func(ev broker.Event) error {
		mu.Lock()
		defer mu.Unlock()
		if panicked {
			panic("poisoned notify")
		}
		notified = append(notified, ev.Name)
		return nil
	})

	err := c.OnEvent(broker.Event{Name: "boom"})
	if !fault.IsPanic(err) {
		t.Fatalf("OnEvent error = %v, want a recovered PanicError", err)
	}
	if got := m.CounterValue(obs.MControllerReentrantDropped); got != 1 {
		t.Errorf("reentrant dropped = %d, want 1 (the queued child event)", got)
	}

	mu.Lock()
	panicked = false
	mu.Unlock()
	if err := c.OnEvent(broker.Event{Name: "boom"}); err != nil {
		t.Fatalf("OnEvent after recovery: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(notified) != 2 || notified[0] != "boom" || notified[1] != "child" {
		t.Errorf("post-recovery notifications = %v, want [boom child]", notified)
	}
}
