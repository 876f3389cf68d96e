package runtime

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/remote"
	"github.com/mddsm/mddsm/internal/script"
)

// chaosResilience retries fast so chaos runs stay instantaneous.
func chaosResilience() fault.Resilience {
	return fault.Resilience{
		Retry: fault.Policy{
			MaxAttempts: 5,
			BaseDelay:   time.Microsecond,
			MaxDelay:    10 * time.Microsecond,
			Multiplier:  2,
		},
		StepTimeout: 2 * time.Second,
		Breaker:     fault.BreakerConfig{Threshold: 16, Cooldown: 10 * time.Millisecond},
	}
}

// buildChaos builds the full four-layer toy platform armed with the given
// injector, a metrics registry, and fast retries.
func buildChaos(t testing.TB, in *fault.Injector) (*Platform, *rec, *obs.Metrics) {
	t.Helper()
	m := obs.NewMetrics()
	in.BindMetrics(m)
	r := &rec{}
	p, err := Build(fullModel(t), Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": r},
		Repository: toyRepo(t),
		Metrics:    m,
		Injector:   in,
		Resilience: chaosResilience(),
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p, r, m
}

// chaosCycle is one deterministic submit→fault→recover cycle with faults at
// three sites spanning the stack: the remote transport (dial), the Broker's
// resource path (step), and the autonomic monitor (probe). It returns the
// injector's fault schedule.
func chaosCycle(t *testing.T, seed int64) []string {
	t.Helper()
	in := fault.NewInjector(seed, fault.WithSleep(func(time.Duration) {}))
	// Two dial failures, then connectivity; two step failures, then the
	// resource works; three probe failures, then telemetry recovers.
	in.Arm(remote.SiteDial, fault.Spec{Kind: fault.Error, Limit: 2})
	in.Arm(broker.SiteStep, fault.Spec{Kind: fault.Error, Limit: 2})
	in.Arm(SiteMonitorProbe, fault.Spec{Kind: fault.Error, Limit: 3})

	p, r, m := buildChaos(t, in)

	// Site 1 — remote.dial: the self-healing Conn retries the injected
	// connection failures and comes up.
	srv, err := remote.NewServer(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := remote.Connect(srv.Addr(),
		remote.WithInjector(in),
		remote.WithRetry(fault.Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}))
	if err != nil {
		t.Fatalf("connect through injected dial faults: %v", err)
	}
	defer conn.Close()

	// Site 2 — broker.step: the remote command crosses the wire, descends
	// the layers, and the Broker retries the injected step failures.
	if err := conn.Call(script.NewCommand("createSession", "session:s1")); err != nil {
		t.Fatalf("call through injected step faults: %v", err)
	}
	if !strings.Contains(recText(r), "svcCreate session:s1") {
		t.Fatalf("command never reached the resource:\n%s", recText(r))
	}

	// Site 3 — monitor.probe: the monitor survives a failing telemetry
	// probe, counting instead of crashing; after the fault budget is spent
	// the probe runs normally again.
	probeRuns := make(chan struct{}, 16)
	stop := p.Monitor(time.Millisecond, func() { probeRuns <- struct{}{} })
	select {
	case <-probeRuns:
	case <-time.After(5 * time.Second):
		t.Fatal("probe never recovered from injected faults")
	}
	stop()

	if got := m.Counter(obs.MProbeFailures).Value(); got != 3 {
		t.Errorf("monitor.probe.failures = %d, want 3", got)
	}
	if got := m.Counter(obs.MFaultInjected).Value(); got != 7 {
		t.Errorf("fault.injected = %d, want 7 (2 dial + 2 step + 3 probe)", got)
	}
	if got := m.Counter(obs.MRetryAttempts).Value(); got == 0 {
		t.Error("retry.attempts = 0; broker retries were not exercised")
	}
	return in.Schedule()
}

// TestChaosSubmitRecoverCycle injects faults at three sites across the
// stack and requires the platform to complete the cycle anyway, with the
// faults visible in the obs counters.
func TestChaosSubmitRecoverCycle(t *testing.T) {
	schedule := chaosCycle(t, 42)
	want := []string{
		"1 " + remote.SiteDial + " error",
		"2 " + remote.SiteDial + " error",
		"3 " + broker.SiteStep + " error",
		"4 " + broker.SiteStep + " error",
		"5 " + SiteMonitorProbe + " error",
		"6 " + SiteMonitorProbe + " error",
		"7 " + SiteMonitorProbe + " error",
	}
	if fmt.Sprint(schedule) != fmt.Sprint(want) {
		t.Errorf("schedule:\n%v\nwant:\n%v", schedule, want)
	}
}

// TestChaosScheduleReproducible reruns the full cycle with the same seed
// and requires an identical fault schedule — the repro guarantee the CLI
// -faults flag relies on.
func TestChaosScheduleReproducible(t *testing.T) {
	s1 := chaosCycle(t, 7)
	s2 := chaosCycle(t, 7)
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", s1, s2)
	}
}

// TestChaosProbabilisticDeterminism drives a synchronous command sequence
// against probabilistic faults: the schedule is a pure function of the seed.
func TestChaosProbabilisticDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		in := fault.NewInjector(seed, fault.WithSleep(func(time.Duration) {}))
		in.Arm(broker.SiteStep, fault.Spec{Kind: fault.Error, P: 0.4})
		in.Arm(broker.SiteEvent, fault.Spec{Kind: fault.Drop, P: 0.3})
		p, _, _ := buildChaos(t, in)
		for i := 0; i < 30; i++ {
			s := script.New("chaos")
			s.Append(script.NewCommand("createSession", fmt.Sprintf("session:s%d", i)))
			_ = p.Execute(s) // exhausted retries may fail the call; that's the point
			_ = p.DeliverEvent(broker.Event{Name: "streamFailed",
				Attrs: map[string]any{"stream": fmt.Sprintf("st%d", i)}})
		}
		return in.Schedule()
	}
	a, b := run(99), run(99)
	if len(a) == 0 {
		t.Fatal("no faults fired over 60 evaluations at p=0.4/0.3")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if c := run(100); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestPumpSurvivesEventFaults verifies degraded mode: injected failures on
// the Broker's event path are counted, not fatal, and delivery resumes.
func TestPumpSurvivesEventFaults(t *testing.T) {
	in := fault.NewInjector(1)
	in.Arm(broker.SiteEvent, fault.Spec{Kind: fault.Error, Limit: 2})
	p, r, m := buildChaos(t, in)
	p.Start()
	defer p.Stop()

	for i := 0; i < 3; i++ {
		if !p.PostEvent(broker.Event{Name: "streamFailed",
			Attrs: map[string]any{"stream": fmt.Sprintf("st%d", i)}}) {
			t.Fatalf("PostEvent %d rejected", i)
		}
	}
	// The first two deliveries fail (injected); the third recovers st2.
	deadline := time.After(5 * time.Second)
	for !strings.Contains(recText(r), "svcRecover stream:st2") {
		select {
		case <-deadline:
			t.Fatalf("pump never recovered; trace:\n%s", recText(r))
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if got := m.Counter(obs.MEventsDeadLettered).Value(); got != 2 {
		t.Errorf("pump.events.deadlettered = %d, want 2", got)
	}
	if got := len(p.DeadLetters()); got != 2 {
		t.Errorf("dead letters parked = %d, want 2", got)
	}
}

// TestPumpPostDropFault verifies the pump.post fault point: a drop fault
// rejects the post (counted as rejected) without wedging the pump.
func TestPumpPostDropFault(t *testing.T) {
	in := fault.NewInjector(1)
	in.Arm(SitePumpPost, fault.Spec{Kind: fault.Drop, Limit: 1})
	p, r, m := buildChaos(t, in)
	p.Start()
	defer p.Stop()

	if p.PostEvent(broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "stX"}}) {
		t.Fatal("dropped post reported accepted")
	}
	if got := m.Counter(obs.MEventsRejected).Value(); got != 1 {
		t.Errorf("pump.events.rejected = %d, want 1", got)
	}
	if !p.PostEvent(broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "stY"}}) {
		t.Fatal("post after fault budget rejected")
	}
	deadline := time.After(5 * time.Second)
	for !strings.Contains(recText(r), "svcRecover stream:stY") {
		select {
		case <-deadline:
			t.Fatalf("surviving event never delivered; trace:\n%s", recText(r))
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestMonitorSurvivesPanickingProbe: a probe that panics is recovered and
// counted; the monitor loop keeps ticking.
func TestMonitorSurvivesPanickingProbe(t *testing.T) {
	p, _, m := buildChaos(t, fault.NewInjector(1))
	calls := 0
	stop := p.Monitor(time.Millisecond, func() {
		calls++
		if calls <= 2 {
			panic("sensor exploded")
		}
	})
	deadline := time.After(5 * time.Second)
	for m.Counter(obs.MMonitorTicks).Value() < 4 {
		select {
		case <-deadline:
			t.Fatal("monitor died after probe panic")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	stop()
	if got := m.Counter(obs.MProbeFailures).Value(); got < 2 {
		t.Errorf("monitor.probe.failures = %d, want >= 2", got)
	}
}

// TestBrokerBreakerOpensUnderSustainedFaults: a persistently failing
// resource op trips its circuit; the breaker short-circuits further calls
// and the obs counters record both transitions.
func TestBrokerBreakerOpensUnderSustainedFaults(t *testing.T) {
	in := fault.NewInjector(1)
	in.Arm(broker.SiteStep, fault.Spec{Kind: fault.Partition})
	p, _, m := buildChaos(t, in)

	var lastErr error
	for i := 0; i < 20; i++ {
		s := script.New("chaos")
		s.Append(script.NewCommand("createSession", "session:s1"))
		lastErr = p.Execute(s)
	}
	if lastErr == nil {
		t.Fatal("partitioned resource succeeded")
	}
	if got := m.Counter(obs.MBreakerOpen).Value(); got == 0 {
		t.Error("breaker.open = 0; circuit never tripped")
	}
	if got := m.Counter(obs.MBreakerShorted).Value(); got == 0 {
		t.Error("breaker.shorted = 0; open circuit never short-circuited")
	}

	// Healing the partition and waiting out the cooldown closes the circuit
	// through a half-open probe.
	in.Heal(broker.SiteStep)
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := script.New("chaos")
		s.Append(script.NewCommand("createSession", "session:s2"))
		if err := p.Execute(s); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("circuit never recovered after heal")
		}
		time.Sleep(time.Millisecond)
	}
}

// recText renders the recorder's trace for assertions.
func recText(r *rec) string { return strings.Join(r.lines(), "\n") }

// TestShardedPumpChaosOrderingUnderRace drives concurrent PostEvent from
// many goroutines against Start/Stop/Monitor cycles and asserts, under the
// race detector, that (a) per-key delivery order holds across pump
// generations and (b) the accounting invariant holds: every attempted post
// ends up delivered, failed, or dropped.
func TestShardedPumpChaosOrderingUnderRace(t *testing.T) {
	const posters, perPoster = 8, 150
	r := &rec{}
	m := obs.NewMetrics()
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Metrics:  m,
	}, Config{PumpShards: 4, PumpQueue: posters * perPoster})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()

	// Lifecycle chaos: stop/start the pump and cycle the monitor while
	// events pour in. Posts hitting a stopped pump are counted drops.
	cycles := make(chan struct{})
	go func() {
		defer close(cycles)
		for c := 0; c < 5; c++ {
			stop := p.Monitor(time.Millisecond, nil)
			time.Sleep(2 * time.Millisecond)
			stop()
			p.Stop()
			time.Sleep(time.Millisecond)
			p.Start()
		}
	}()

	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				if p.PostEvent(keyedEvent(fmt.Sprintf("g%d", g), i)) {
					accepted.Add(1)
				} else {
					rejected.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	<-cycles
	p.Stop() // final graceful drain

	if accepted.Load() == 0 {
		t.Fatal("no posts accepted; the chaos cycle never left the pump running")
	}
	assertOrderedPerKey(t, r.lines())
	assertPumpAccounting(t, m, accepted.Load(), rejected.Load())
	if got := accepted.Load() + rejected.Load(); got != posters*perPoster {
		t.Fatalf("attempts = %d, want %d", got, posters*perPoster)
	}
}
