package runtime

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/controller"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

// poisonRec is a recording adapter that panics on targets containing
// "poison" while armed — the poisoned-handler half of the chaos tests.
type poisonRec struct {
	rec
	armed atomic.Bool
}

func (r *poisonRec) Execute(cmd script.Command) error {
	if r.armed.Load() && strings.Contains(cmd.Target, "poison") {
		panic("poisoned adapter: " + cmd.Target)
	}
	return r.rec.Execute(cmd)
}

// waitLeaked polls until the goroutine count returns to (roughly) base.
func waitLeaked(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		goruntime.GC()
		n := goruntime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", base, n, buf[:goruntime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// chaosDeps builds the four-layer toy platform's DSK around the given
// adapter.
func chaosDeps(t testing.TB, a broker.Adapter, m *obs.Metrics, in *fault.Injector) Deps {
	t.Helper()
	d := Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": a},
		Repository: toyRepo(t),
		Metrics:    m,
		Injector:   in,
	}
	if in != nil {
		d.Resilience = chaosResilience()
	}
	return d
}

// TestCrashRecoveryChaos is the tentpole end-to-end: error and panic
// faults armed across the engine's sites, a poisoned adapter panicking
// under delivery — the process never dies, every event is accounted
// exactly, and a checkpoint→destroy→restore cycle yields a diff-equal
// runtime model with the dead letters intact and redeliverable.
func TestCrashRecoveryChaos(t *testing.T) {
	for _, seed := range []int64{1, 42, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			base := goruntime.NumGoroutine()
			in := fault.NewInjector(seed, fault.WithSleep(func(time.Duration) {}))
			in.Arm(SitePumpPost, fault.Spec{Kind: fault.Drop, Limit: 1})
			in.Arm(broker.SiteEvent, fault.Spec{Kind: fault.Error, Limit: 2})
			in.Arm(broker.SiteStep, fault.Spec{Kind: fault.Error, Limit: 2})
			in.Arm(controller.SiteDispatch, fault.Spec{Kind: fault.Error, Limit: 1})

			m := obs.NewMetrics()
			in.BindMetrics(m)
			r := &poisonRec{}
			r.armed.Store(true)
			// Single shard: deliveries happen in post order, so the fault
			// budgets land deterministically.
			p, err := Build(fullModel(t), chaosDeps(t, r, m, in), Config{PumpShards: 1})
			if err != nil {
				t.Fatal(err)
			}
			p.Start()

			ev := func(stream string) broker.Event {
				return broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": stream}}
			}
			// 1. Intake fault: the first post is rejected at the gate.
			if p.PostEvent(ev("gone")) {
				t.Fatal("pump.post drop fault did not reject the post")
			}
			// 2. Two posts eat the broker.event error budget → dead-lettered.
			// 3. Two poison posts panic in the adapter → dead-lettered.
			for _, s := range []string{"err1", "err2", "poison1", "poison2"} {
				if !p.PostEvent(ev(s)) {
					t.Fatalf("post %s rejected", s)
				}
			}
			waitFor(t, "4 dead letters", func() bool { return len(p.DeadLetters()) == 4 })

			// 4. Spend the dispatch error budget on a sacrificial command.
			if err := p.Execute(scriptOf("createSession", "session:sacrifice")); err == nil {
				t.Fatal("injected dispatch fault did not surface")
			}
			// 5. Model submission now succeeds: the broker.step errors are
			// transient and retried away by the resilience policy.
			d := p.UI.NewDraft()
			d.MustAdd("s1", "Session").SetRef("streams", "st1")
			d.MustAdd("st1", "Stream").SetAttr("media", "audio")
			if _, err := d.Submit(); err != nil {
				t.Fatalf("submit through injected faults: %v", err)
			}
			// 6. Healthy traffic delivers normally.
			for _, s := range []string{"ok1", "ok2"} {
				if !p.PostEvent(ev(s)) {
					t.Fatalf("post %s rejected", s)
				}
			}
			waitFor(t, "healthy deliveries", func() bool {
				tr := recText(&r.rec)
				return strings.Contains(tr, "svcRecover stream:ok1") &&
					strings.Contains(tr, "svcRecover stream:ok2")
			})
			p.Stop()

			// Exact accounting: 6 accepted (2 err + 2 poison + 2 ok), 1
			// rejected at intake; of the accepted, 2 delivered and 4 parked.
			assertPumpAccounting(t, m, 6, 1)
			if got := m.CounterValue(obs.MEventsDeadLettered); got != 4 {
				t.Errorf("dead-lettered = %d, want 4", got)
			}
			if got := m.CounterValue(obs.MEventsDelivered); got != 2 {
				t.Errorf("delivered = %d, want 2", got)
			}
			if got := m.CounterValue(obs.MPanicsRecovered); got < 2 {
				t.Errorf("panic.recovered = %d, want >= 2 (two poisoned deliveries)", got)
			}

			// Checkpoint the wreckage, destroy the platform, restore into a
			// fresh (healed) environment.
			snap, err := p.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			wantModel := p.Synthesis.CurrentModel()
			wantStats := p.Controller.Stats()

			m2 := obs.NewMetrics()
			r2 := &poisonRec{} // healed: never armed
			p2, err := Restore(snap, chaosDeps(t, r2, m2, nil), Config{})
			if err != nil {
				t.Fatal(err)
			}
			if diff := metamodel.Diff(wantModel, p2.Synthesis.CurrentModel()); len(diff) != 0 {
				t.Fatalf("restored runtime model differs: %v", diff)
			}
			if got := p2.Synthesis.Seq(); got != p.Synthesis.Seq() {
				t.Errorf("restored seq = %d, want %d", got, p.Synthesis.Seq())
			}
			gotStats := p2.Controller.Stats()
			if gotStats.Commands != wantStats.Commands || gotStats.Events != wantStats.Events {
				t.Errorf("restored stats = %+v, want commands/events of %+v", gotStats, wantStats)
			}
			if got := len(p2.DeadLetters()); got != 4 {
				t.Fatalf("restored dead letters = %d, want 4", got)
			}

			// The parked events replay cleanly against the healed adapter.
			p2.Start()
			red, req := p2.Redeliver()
			if red != 4 || req != 0 {
				t.Fatalf("Redeliver = (%d, %d), want (4, 0)", red, req)
			}
			tr2 := recText(&r2.rec)
			for _, s := range []string{"err1", "err2", "poison1", "poison2"} {
				if !strings.Contains(tr2, "svcRecover stream:"+s) {
					t.Errorf("redelivered %s not in restored trace:\n%s", s, tr2)
				}
			}
			if got := m2.CounterValue(obs.MDLQRedelivered); got != 4 {
				t.Errorf("dlq.redelivered = %d, want 4", got)
			}
			p2.Stop()
			waitLeaked(t, base)
		})
	}
}

func scriptOf(op, target string) *script.Script {
	s := script.New("test")
	s.Append(script.NewCommand(op, target))
	return s
}

// TestPumpKeepsGenerationThroughPanics: panicking deliveries cost only
// their own events. Past two panics, and through 100 ms of posts into a
// still-poisoned adapter, the pump keeps its generation and refuses no
// post; once the adapter heals it delivers, and every accepted event is
// accounted exactly once.
func TestPumpKeepsGenerationThroughPanics(t *testing.T) {
	m := obs.NewMetrics()
	r := &poisonRec{}
	r.armed.Store(true)
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Metrics:  m,
	}, Config{PumpShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()

	posted, refused := 0, 0
	post := func() {
		if p.PostEvent(keyedEvent("poison", posted)) {
			posted++
		} else {
			refused++
		}
	}
	post()
	p.pumpMu.Lock()
	gen := p.pump
	p.pumpMu.Unlock()
	post()
	waitFor(t, "2 panicking deliveries", func() bool { return m.CounterValue(obs.MEventsDeadLettered) == 2 })
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
		post()
		time.Sleep(time.Millisecond)
	}
	waitFor(t, "every poisoned event dead-lettered", func() bool {
		return m.CounterValue(obs.MEventsDeadLettered) == int64(posted)
	})

	r.armed.Store(false)
	post()
	waitFor(t, "delivery after heal", func() bool { return m.CounterValue(obs.MEventsDelivered) == 1 })
	p.pumpMu.Lock()
	same := p.pump == gen
	p.pumpMu.Unlock()
	if !same {
		t.Error("the pump was replaced by a new generation")
	}
	if refused != 0 {
		t.Errorf("%d of %d posts refused", refused, posted+refused)
	}
	p.Stop()
	assertPumpAccounting(t, m, int64(posted), 0)
	if got := m.CounterValue(obs.MEventsDeadLettered); got != int64(posted-1) {
		t.Errorf("dead-lettered = %d, want %d", got, posted-1)
	}
}

// TestDLQRedeliverRequeue: a redelivery that fails again re-enters the
// queue with its attempt count bumped; a later redelivery drains it.
func TestDLQRedeliverRequeue(t *testing.T) {
	in := fault.NewInjector(1, fault.WithSleep(func(time.Duration) {}))
	in.Arm(broker.SiteEvent, fault.Spec{Kind: fault.Error, Limit: 2})
	m := obs.NewMetrics()
	r := &rec{}
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Metrics:  m,
		Injector: in,
	}, Config{PumpShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	for i := 0; i < 2; i++ {
		if !p.PostEvent(keyedEvent("k", i)) {
			t.Fatalf("post %d rejected", i)
		}
	}
	waitFor(t, "2 dead letters", func() bool { return len(p.DeadLetters()) == 2 })
	p.Stop()

	// One more event-path fault: the first replay fails and requeues with
	// a bumped attempt count, the second replay succeeds.
	in.Arm(broker.SiteEvent, fault.Spec{Kind: fault.Error, Limit: 1})
	red, req := p.Redeliver()
	if red != 1 || req != 1 {
		t.Fatalf("Redeliver = (%d, %d), want (1, 1)", red, req)
	}
	dls := p.DeadLetters()
	if len(dls) != 1 || dls[0].Attempts != 2 {
		t.Fatalf("requeued letter = %+v, want 1 entry with Attempts=2", dls)
	}
	red, req = p.Redeliver()
	if red != 1 || req != 0 {
		t.Fatalf("second Redeliver = (%d, %d), want (1, 0)", red, req)
	}
	if got := len(p.DeadLetters()); got != 0 {
		t.Errorf("DLQ size after drain = %d, want 0", got)
	}
	if got := m.CounterValue(obs.MDLQRedelivered); got != 2 {
		t.Errorf("dlq.redelivered = %d, want 2", got)
	}
	if got := m.CounterValue(obs.MDLQRequeued); got != 1 {
		t.Errorf("dlq.requeued = %d, want 1", got)
	}
}

// replayGate fails every command. The second command for key "a" — its
// replay — signals entered and waits for release before failing, so a
// test can run the pump while Redeliver holds the drained entry.
type replayGate struct {
	calls   atomic.Int32
	entered chan struct{}
	release chan struct{}
}

func (g *replayGate) Execute(cmd script.Command) error {
	if strings.HasPrefix(cmd.Target, "a:") && g.calls.Add(1) == 2 {
		close(g.entered)
		<-g.release
	}
	return fmt.Errorf("adapter down: %s", cmd.Target)
}

// TestRedeliverLossKeepsLedger: a replay that fails again after the pump
// has refilled the DLQ is lost. Its first failure already counted it
// dead-lettered, so the loss counts only in dlq.lost and the pump's
// ledger stays exact.
func TestRedeliverLossKeepsLedger(t *testing.T) {
	g := &replayGate{entered: make(chan struct{}), release: make(chan struct{})}
	m := obs.NewMetrics()
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": g},
		Metrics:  m,
	}, Config{PumpShards: 1, DLQCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Stop()
	if !p.PostEvent(keyedEvent("a", 0)) {
		t.Fatal("post a rejected")
	}
	waitFor(t, "a dead-lettered", func() bool { return len(p.DeadLetters()) == 1 })

	type counts struct{ redelivered, requeued int }
	done := make(chan counts, 1)
	go func() {
		red, req := p.Redeliver()
		done <- counts{red, req}
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the replay of a never reached the adapter")
	}
	if !p.PostEvent(keyedEvent("b", 1)) {
		t.Fatal("post b rejected")
	}
	waitFor(t, "b dead-lettered", func() bool { return m.CounterValue(obs.MEventsDeadLettered) == 2 })
	close(g.release)
	if got := <-done; got != (counts{}) {
		t.Fatalf("Redeliver = %+v, want nothing redelivered or requeued", got)
	}
	p.Stop()

	assertPumpAccounting(t, m, 2, 0)
	if got := m.CounterValue(obs.MDeliverFailures); got != 0 {
		t.Errorf("deliver failures = %d, want 0", got)
	}
	if got := m.CounterValue(obs.MDLQLost); got != 1 {
		t.Errorf("dlq.lost = %d, want 1", got)
	}
	if dls := p.DeadLetters(); len(dls) != 1 || dls[0].Event.Name != "b" {
		t.Errorf("dead letters = %+v, want only b", dls)
	}
}

// TestRestoreOverflowKeepsLedger: a platform restored with a smaller DLQ
// than its snapshot's backlog loses the dead letters that do not fit. The
// pump already counted each of them dead-lettered, and a host that
// restores onto the same metrics (serve's rehydration) keeps that ledger,
// so the overflow counts only in dlq.lost.
func TestRestoreOverflowKeepsLedger(t *testing.T) {
	m := obs.NewMetrics()
	deps := Deps{
		Adapters: map[string]broker.Adapter{"main": broker.AdapterFunc(func(cmd script.Command) error {
			return fmt.Errorf("adapter down: %s", cmd.Target)
		})},
		Metrics: m,
	}
	p, err := Build(pumpEventModel(t), deps, Config{PumpShards: 1, DLQCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	for i, key := range []string{"a", "b", "c"} {
		if !p.PostEvent(keyedEvent(key, i)) {
			t.Fatalf("post %s rejected", key)
		}
	}
	waitFor(t, "three dead letters", func() bool { return len(p.DeadLetters()) == 3 })
	snap := p.Quiesce()

	q, err := RestoreSnapshot(snap, deps, Config{DLQCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	assertPumpAccounting(t, m, 3, 0)
	if got := m.CounterValue(obs.MDeliverFailures); got != 0 {
		t.Errorf("deliver failures = %d, want 0", got)
	}
	if got := m.CounterValue(obs.MEventsDeadLettered); got != 3 {
		t.Errorf("dead-lettered = %d, want 3", got)
	}
	if got := m.CounterValue(obs.MDLQLost); got != 2 {
		t.Errorf("dlq.lost = %d, want 2", got)
	}
	if dls := q.DeadLetters(); len(dls) != 1 || dls[0].Event.Name != "a" {
		t.Errorf("restored dead letters = %+v, want only a", dls)
	}
}

// TestStartStopPostStart is the regression test for the lifecycle
// satellite: a post after Stop fails fast as a counted rejection and the
// platform comes back cleanly on the next Start.
func TestStartStopPostStart(t *testing.T) {
	m := obs.NewMetrics()
	r := &rec{}
	p, err := Build(pumpEventModel(t), Deps{
		Adapters: map[string]broker.Adapter{"main": r},
		Metrics:  m,
	}, Config{PumpShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	if !p.PostEvent(keyedEvent("k", 0)) {
		t.Fatal("post on running pump rejected")
	}
	p.Stop()
	if p.PostEvent(keyedEvent("k", 1)) {
		t.Fatal("post after Stop must report false")
	}
	if got := m.CounterValue(obs.MEventsRejected); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	p.Start()
	if !p.PostEvent(keyedEvent("k", 2)) {
		t.Fatal("post after restart rejected")
	}
	waitFor(t, "post-restart delivery", func() bool {
		return strings.Contains(recText(r), "h k:000002")
	})
	p.Stop()
	assertPumpAccounting(t, m, 2, 1)
}

// TestLifecycleGoroutineLeak cycles Start/Monitor/Checkpoint/Stop/Restore
// repeatedly and requires the goroutine count to return to baseline —
// pump shards and monitor loop all accounted for. Run under -race in CI.
func TestLifecycleGoroutineLeak(t *testing.T) {
	base := goruntime.NumGoroutine()
	r := &rec{}
	deps := chaosDeps(t, r, obs.NewMetrics(), nil)
	p, err := Build(fullModel(t), deps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 3; cycle++ {
		p.Start()
		p.Monitor(time.Millisecond, nil)
		for i := 0; i < 5; i++ {
			p.PostEvent(broker.Event{Name: "streamFailed",
				Attrs: map[string]any{"stream": fmt.Sprintf("c%d-%d", cycle, i)}})
		}
		snap, err := p.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		p.Stop()
		if p, err = Restore(snap, deps, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	p.Stop() // idempotent: never started after the last restore
	waitLeaked(t, base)
}

// TestCheckpointRestoreRoundtrip covers the state classes the chaos test
// does not touch: broker state/context values, controller context, and
// open circuit breakers surviving the roundtrip.
func TestCheckpointRestoreRoundtrip(t *testing.T) {
	m := obs.NewMetrics()
	r := &rec{}
	deps := chaosDeps(t, r, m, nil)
	deps.Resilience = chaosResilience() // enable breakers
	p, err := Build(fullModel(t), deps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := p.UI.NewDraft()
	d.MustAdd("s1", "Session").SetRef("streams", "st1")
	d.MustAdd("st1", "Stream").SetAttr("media", "audio")
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}
	p.Broker.State().Set("lastStream", "st9")
	p.Broker.Context().Set("securityLevel", 2.0)
	p.Controller.Context().Set("memoryLow", true)
	p.Broker.TripBreaker("svcCreate")

	snap, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rdeps := chaosDeps(t, &rec{}, obs.NewMetrics(), nil)
	rdeps.Resilience = chaosResilience() // breakers must exist to re-trip
	p2, err := Restore(snap, rdeps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := p2.Broker.State().Get("lastStream"); v != "st9" {
		t.Errorf("restored broker state lastStream = %v, want st9", v)
	}
	if v, _ := p2.Broker.Context().Get("securityLevel"); v != 2.0 {
		t.Errorf("restored broker context securityLevel = %v, want 2", v)
	}
	if v, _ := p2.Controller.Context().Get("memoryLow"); v != true {
		t.Errorf("restored controller context memoryLow = %v, want true", v)
	}
	open := p2.Broker.OpenBreakers()
	if len(open) != 1 || open[0] != "svcCreate" {
		t.Errorf("restored open breakers = %v, want [svcCreate]", open)
	}
	if got := p2.Synthesis.State(); got != p.Synthesis.State() {
		t.Errorf("restored LTS state = %q, want %q", got, p.Synthesis.State())
	}
}

// TestSnapshotValueRestoresLikeBytes restores one captured snapshot that
// carries a dead letter and a tripped breaker twice — from the value and
// through Encode and Restore — drives both copies alike and requires
// equivalent end states and identical adapter traces.
func TestSnapshotValueRestoresLikeBytes(t *testing.T) {
	res := chaosResilience()
	res.Breaker.Cooldown = time.Hour // stays open for the whole test
	deps := func(r *rec) Deps {
		d := chaosDeps(t, r, obs.NewMetrics(), nil)
		d.Resilience = res
		return d
	}
	p, err := Build(fullModel(t), deps(&rec{}), Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := p.UI.NewDraft()
	d.MustAdd("s1", "Session").SetRef("streams", "st1")
	d.MustAdd("st1", "Stream").SetAttr("media", "audio")
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}
	p.Broker.State().Set("calls", 3)
	p.Controller.Context().Set("memoryLow", true)
	p.Broker.TripBreaker("svcCreate")
	p.dlq.add(DeadLetter{
		Event:    broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "st1", "try": 1}},
		Reason:   "resource down",
		Attempts: 2,
	})
	snap := p.Quiesce()
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}

	fromValue, fromBytes := &rec{}, &rec{}
	pv, err := RestoreSnapshot(snap, deps(fromValue), Config{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Restore(data, deps(fromBytes), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var ends [][]byte
	for _, q := range []*Platform{pv, pb} {
		if open := q.Broker.OpenBreakers(); len(open) != 1 || open[0] != "svcCreate" {
			t.Fatalf("restored open breakers = %v, want [svcCreate]", open)
		}
		if dls := q.DeadLetters(); len(dls) != 1 || dls[0].Attempts != 2 {
			t.Fatalf("restored dead letters = %+v", dls)
		}
		e := q.UI.EditDraft()
		e.MustAdd("st2", "Stream").SetAttr("media", "video")
		e.Object("s1").AddRef("streams", "st2")
		if _, err := e.Submit(); err != nil {
			t.Fatal(err)
		}
		if err := q.DeliverEvent(broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "st2"}}); err != nil {
			t.Fatal(err)
		}
		if rd, rq := q.Redeliver(); rd != 1 || rq != 0 {
			t.Fatalf("Redeliver = (%d, %d), want (1, 0)", rd, rq)
		}
		end, err := q.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, end)
	}
	if same, err := SnapshotsEquivalent(ends[0], ends[1]); err != nil || !same {
		t.Fatalf("end states differ (err %v):\nvalue: %s\nbytes: %s", err, ends[0], ends[1])
	}
	a, b := fromValue.lines(), fromBytes.lines()
	if len(a) == 0 || strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("adapter traces differ:\nvalue: %q\nbytes: %q", a, b)
	}
}

// TestRestoreRejectsBadSnapshots pins the decoder's error paths (the fuzz
// target's deterministic cousins).
func TestRestoreRejectsBadSnapshots(t *testing.T) {
	deps := chaosDeps(t, &rec{}, obs.NewMetrics(), nil)
	for name, data := range map[string][]byte{
		"empty":       nil,
		"not-json":    []byte("nope"),
		"bad-version": []byte(`{"version": 99}`),
		"no-model":    []byte(`{"version": 1}`),
		"mismatched-synthesis": []byte(`{"version": 1,
			"middleware": {"metamodel": "mw-mm", "objects": []},
			"synthesis": {"appModel": {"metamodel": "toy-dsml"}, "seq": 1, "ltsState": "run"}}`),
	} {
		if _, err := Restore(data, deps, Config{}); err == nil {
			t.Errorf("%s: Restore accepted a bad snapshot", name)
		}
	}
}
