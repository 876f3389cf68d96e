package runtime

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

var errBoom = errors.New("boom")

// feedbackAdapter answers emitB and emitC by delivering events B and C
// back into the platform — the way every bundle's feedback closure does,
// dropping the result — and fails the op fail.
type feedbackAdapter struct {
	p *Platform

	mu     sync.Mutex
	nested []error // results of the nested DeliverEvent calls
}

func (a *feedbackAdapter) Execute(cmd script.Command) error {
	switch cmd.Op {
	case "emitB", "emitC":
		err := a.p.DeliverEvent(broker.Event{Name: strings.TrimPrefix(cmd.Op, "emit")})
		a.mu.Lock()
		a.nested = append(a.nested, err)
		a.mu.Unlock()
	case "fail":
		return errBoom
	}
	return nil
}

// routeProbe builds a platform whose Controller fails event A after the
// Broker has queued a re-entrant event B, whose own Broker event action
// delivers a further event C. A's failure must reach the delivery of A,
// not the nested delivery of C.
func routeProbe(t *testing.T, cfg Config) (*Platform, *feedbackAdapter, *obs.Metrics) {
	t.Helper()
	b := mwmeta.NewBuilder("route-vm", "d")
	b.ControllerLayer("ctl").
		EventAction("onA", "A", "", false, "",
			mwmeta.StepSpec{Op: "emitB", Target: "x"},
			mwmeta.StepSpec{Op: "fail", Target: "x"}).
		Done().
		BrokerLayer("br").
		Action("pass", "*", "", mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		EventAction("onB", "B", "", false, mwmeta.StepSpec{Op: "emitC", Target: "x"}).
		Bind("*", "main")
	a := &feedbackAdapter{}
	m := obs.NewMetrics()
	p, err := Build(b.Model(), Deps{
		Adapters: map[string]broker.Adapter{"main": a},
		Metrics:  m,
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.p = p
	return p, a, m
}

func assertControllerFailure(t *testing.T, err error) {
	t.Helper()
	if !errors.Is(err, errBoom) || !strings.Contains(err.Error(), "event action onA") {
		t.Fatalf("error = %v, want the Controller's onA failure", err)
	}
}

func assertNestedDeliveriesClean(t *testing.T, a *feedbackAdapter) {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.nested) != 2 {
		t.Fatalf("nested deliveries = %d, want 2 (B and C)", len(a.nested))
	}
	for i, err := range a.nested {
		if err != nil {
			t.Errorf("nested delivery %d returned %v, want nil (it only queued its event)", i, err)
		}
	}
}

// TestDeliverEventReturnsControllerFailure: the delivery of A fails with
// the Controller's error even though a re-entrant event drains after it,
// and the nested deliveries that only queued their events report nothing.
func TestDeliverEventReturnsControllerFailure(t *testing.T) {
	p, a, _ := routeProbe(t, Config{})
	assertControllerFailure(t, p.DeliverEvent(broker.Event{Name: "A"}))
	assertNestedDeliveriesClean(t, a)
}

// TestBrokerOnEventReturnsControllerFailure: the Broker's own entry point
// reports the upper layer's failure; nothing is left behind for a later
// delivery to pick up.
func TestBrokerOnEventReturnsControllerFailure(t *testing.T) {
	p, a, _ := routeProbe(t, Config{})
	assertControllerFailure(t, p.Broker.OnEvent(broker.Event{Name: "A"}))
	assertNestedDeliveriesClean(t, a)
	if err := p.DeliverEvent(broker.Event{Name: "C"}); err != nil {
		t.Errorf("a later clean delivery returned %v", err)
	}
}

// TestPumpDeadLettersControllerFailure: posted through the pump, A is
// dead-lettered, not counted delivered, and Redeliver can replay it.
func TestPumpDeadLettersControllerFailure(t *testing.T) {
	p, a, m := routeProbe(t, Config{PumpShards: 1})
	p.Start()
	if !p.PostEvent(broker.Event{Name: "A"}) {
		t.Fatal("post rejected")
	}
	p.Stop()
	if got := m.CounterValue(obs.MEventsDeadLettered); got != 1 {
		t.Errorf("dead-lettered = %d, want 1", got)
	}
	if got := m.CounterValue(obs.MEventsDelivered); got != 0 {
		t.Errorf("delivered = %d, want 0", got)
	}
	assertPumpAccounting(t, m, 1, 0)
	dls := p.DeadLetters()
	if len(dls) != 1 || dls[0].Event.Name != "A" {
		t.Fatalf("dead letters = %+v, want [A]", dls)
	}
	if !strings.Contains(dls[0].Reason, "event action onA") {
		t.Errorf("reason = %q, want the Controller's onA failure", dls[0].Reason)
	}
	assertNestedDeliveriesClean(t, a)
}
