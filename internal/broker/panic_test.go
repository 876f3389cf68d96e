package broker

import (
	"sync"
	"testing"

	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

// fnAdapter adapts a function to the Adapter interface.
type fnAdapter func(script.Command) error

func (f fnAdapter) Execute(cmd script.Command) error { return f(cmd) }

// TestOnEventDrainPanicCleansQueue is the regression test for the
// re-entrancy leak: a panic escaping the drain used to leave the
// goroutine's queue entry behind, silently swallowing every later event on
// that goroutine ID. The recovery must return a classified PanicError,
// count the dropped re-entrant events, and leave the broker able to
// process the next event normally.
func TestOnEventDrainPanicCleansQueue(t *testing.T) {
	m := obs.NewMetrics()
	var b *Broker
	rm := NewResourceManager()
	rm.Register("*", fnAdapter(func(cmd script.Command) error {
		if cmd.Op == "reenter" {
			// Re-entrant event: joins this goroutine's queue behind the
			// event being processed.
			return b.OnEvent(Event{Name: "child"})
		}
		return nil
	}))
	var (
		mu       sync.Mutex
		panicked = true
		notified []string
	)
	b = New(Config{
		Name:    "b",
		Metrics: m,
		EventActions: []*EventAction{{
			Name: "boomAct", Event: "boom",
			Steps:   []Step{{Op: "reenter", Target: "x"}},
			Forward: true,
		}},
	}, rm, func(ev Event) error {
		mu.Lock()
		defer mu.Unlock()
		if panicked {
			panic("poisoned notify")
		}
		notified = append(notified, ev.Name)
		return nil
	})

	err := b.OnEvent(Event{Name: "boom"})
	if !fault.IsPanic(err) {
		t.Fatalf("OnEvent error = %v, want a recovered PanicError", err)
	}
	if got := m.CounterValue(obs.MBrokerReentrantDropped); got != 1 {
		t.Errorf("reentrant dropped = %d, want 1 (the queued child event)", got)
	}
	if got := m.CounterValue(obs.MPanicsRecovered); got == 0 {
		t.Error("panic.recovered = 0, want > 0")
	}

	// The poisoned handler must not have leaked its queue entry: the same
	// goroutine processes the next event (and its re-entrant child) fully.
	mu.Lock()
	panicked = false
	mu.Unlock()
	if err := b.OnEvent(Event{Name: "boom"}); err != nil {
		t.Fatalf("OnEvent after recovery: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(notified) != 2 || notified[0] != "boom" || notified[1] != "child" {
		t.Errorf("post-recovery notifications = %v, want [boom child]", notified)
	}
}

// TestStepPanicBecomesError: an adapter panic inside a broker step is
// recovered at the step boundary into a non-transient PanicError — the
// caller gets an error, not a crash, and the panic is never retried.
func TestStepPanicBecomesError(t *testing.T) {
	m := obs.NewMetrics()
	calls := 0
	rm := NewResourceManager()
	rm.Register("*", fnAdapter(func(cmd script.Command) error {
		calls++
		panic("poisoned adapter")
	}))
	b := New(Config{
		Name:    "b",
		Metrics: m,
		Actions: []*Action{{
			Name: "pass", Ops: []string{"*"},
			Steps: []Step{{Op: "{op}", Target: "{target}"}},
		}},
		Resilience: fault.Resilience{
			Retry: fault.Policy{MaxAttempts: 4, BaseDelay: 1},
		},
	}, rm, nil)

	err := b.Call(script.NewCommand("doom", "svc:1"))
	if !fault.IsPanic(err) {
		t.Fatalf("Call error = %v, want a recovered PanicError", err)
	}
	if calls != 1 {
		t.Errorf("adapter calls = %d, want 1 (panics are not transient, never retried)", calls)
	}
	if got := m.CounterValue(obs.MPanicsRecovered); got != 1 {
		t.Errorf("panic.recovered = %d, want 1", got)
	}
}
