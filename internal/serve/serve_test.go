package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	_ "github.com/mddsm/mddsm/internal/domains/all"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/remote"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

// sessionModel loads the bundled CVM application model.
func sessionModel(t testing.TB) *metamodel.Model {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "session.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := metamodel.UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCreateAndDuplicate(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if err := s.Create("acme", "cml"); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("acme", "cml"); err == nil {
		t.Error("duplicate create must fail")
	}
	if err := s.Create("", "cml"); err == nil {
		t.Error("empty tenant name must fail")
	}
	if err := s.Create("ghost", "no-such-bundle"); err == nil {
		t.Error("unknown bundle must fail")
	}
	if got := s.Tenants(); len(got) != 1 || got[0] != "acme" {
		t.Errorf("Tenants() = %v", got)
	}
}

// TestEvictionRoundtripDiffEqual pins the tentpole invariant: evicting a
// tenant and touching it back produces an equivalent models@runtime state.
func TestEvictionRoundtripDiffEqual(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if err := s.Create("acme", "cml"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitModel("acme", sessionModel(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Evict("acme"); err != nil {
		t.Fatal(err)
	}
	parkedSnap, err := s.Snapshot("acme")
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Stat("acme")
	if err != nil {
		t.Fatal(err)
	}
	if st["resident"] != false {
		t.Fatalf("evicted tenant still resident: %v", st)
	}

	// Any routed work rehydrates; a command script is the natural touch.
	if err := s.Execute("acme", script.New("probe")); err != nil {
		t.Fatal(err)
	}
	st, err = s.Stat("acme")
	if err != nil {
		t.Fatal(err)
	}
	if st["resident"] != true {
		t.Fatalf("touched tenant not rehydrated: %v", st)
	}
	liveSnap, err := s.Snapshot("acme")
	if err != nil {
		t.Fatal(err)
	}
	same, err := runtime.SnapshotsEquivalent(parkedSnap, liveSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("eviction roundtrip drifted:\nparked=%s\nlive=%s", parkedSnap, liveSnap)
	}
	if s.Obs().MetricsOf().CounterValue(obs.MServeRehydrations) != 1 {
		t.Error("rehydration not counted")
	}
}

// TestLRUEviction checks the residency cap evicts the least recently
// touched tenant, not an arbitrary one.
func TestLRUEviction(t *testing.T) {
	s := NewServer(Config{MaxResident: 2})
	defer s.Close()
	for _, name := range []string{"t1", "t2"} {
		if err := s.Create(name, "cml"); err != nil {
			t.Fatal(err)
		}
	}
	// Touch t1 so t2 becomes the LRU victim.
	if err := s.Execute("t1", script.New("touch")); err != nil {
		t.Fatal(err)
	}
	if err := s.Create("t3", "cml"); err != nil {
		t.Fatal(err)
	}
	if s.Resident() != 2 {
		t.Fatalf("resident = %d, want 2", s.Resident())
	}
	st, err := s.Stat("t2")
	if err != nil {
		t.Fatal(err)
	}
	if st["resident"] != false {
		t.Errorf("t2 should be parked, stat = %v", st)
	}
	for _, name := range []string{"t1", "t3"} {
		st, err := s.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		if st["resident"] != true {
			t.Errorf("%s should be resident, stat = %v", name, st)
		}
	}
}

// TestQuotaExactRejections pins the token bucket's accounting with a
// frozen clock: exactly burst posts are admitted, every further one is a
// counted rejection.
func TestQuotaExactRejections(t *testing.T) {
	frozen := time.Unix(1700000000, 0)
	s := NewServer(Config{
		Quota: Quota{EventRate: 0.001, EventBurst: 3},
		Now:   func() time.Time { return frozen },
	})
	defer s.Close()
	if err := s.Create("acme", "mgrid"); err != nil {
		t.Fatal(err)
	}
	const posts = 10
	admitted, rejected := 0, 0
	for i := 0; i < posts; i++ {
		if err := s.PostEvent("acme", broker.Event{Name: "telemetry", Attrs: map[string]any{}}); err != nil {
			rejected++
		} else {
			admitted++
		}
	}
	if admitted != 3 || rejected != 7 {
		t.Fatalf("admitted=%d rejected=%d, want 3/7", admitted, rejected)
	}
	if got := s.Obs().MetricsOf().CounterValue(obs.MServeThrottled); got != 7 {
		t.Errorf("serve.events.throttled = %d, want 7", got)
	}
	st, err := s.Stat("acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := st["rejected"].(int64); got != 7 {
		t.Errorf("tenant rejected counter = %d, want 7", got)
	}
}

// TestQuotaRefills advances a fake clock and checks tokens come back at
// EventRate.
func TestQuotaRefills(t *testing.T) {
	now := time.Unix(1700000000, 0)
	s := NewServer(Config{
		Quota: Quota{EventRate: 2, EventBurst: 1}, // 1 token, +2/s
		Now:   func() time.Time { return now },
	})
	defer s.Close()
	if err := s.Create("acme", "mgrid"); err != nil {
		t.Fatal(err)
	}
	ev := broker.Event{Name: "telemetry", Attrs: map[string]any{}}
	if err := s.PostEvent("acme", ev); err != nil {
		t.Fatal(err)
	}
	if err := s.PostEvent("acme", ev); err == nil {
		t.Fatal("second immediate post must be throttled")
	}
	now = now.Add(time.Second) // refills 2 tokens, capped at burst 1
	if err := s.PostEvent("acme", ev); err != nil {
		t.Fatalf("post after refill: %v", err)
	}
	if err := s.PostEvent("acme", ev); err == nil {
		t.Fatal("burst cap must hold after refill")
	}
}

// TestFiftyTenantsResident is the capacity acceptance check: ≥50
// resident platforms in one process, each cml tenant committing the same
// application model independently.
func TestFiftyTenantsResident(t *testing.T) {
	s := NewServer(Config{MaxResident: 64})
	defer s.Close()
	const n = 52
	for i := 0; i < n; i++ {
		bundle := "cml"
		if i%2 == 1 {
			bundle = "mgrid"
		}
		if err := s.Create(fmt.Sprintf("t%02d", i), bundle); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Resident(); got < 50 {
		t.Fatalf("resident = %d, want >= 50", got)
	}
	m := sessionModel(t)
	for i := 0; i < n; i += 2 {
		name := fmt.Sprintf("t%02d", i)
		if _, err := s.SubmitModel(name, m); err != nil {
			t.Fatal(err)
		}
		got, _, err := s.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != m.Len() {
			t.Errorf("%s committed %d objects, want %d", name, got.Len(), m.Len())
		}
	}
}

// TestConcurrentLifecycle hammers create/post/evict/stat/rehydrate from
// many goroutines with a tiny residency cap, for the race detector.
func TestConcurrentLifecycle(t *testing.T) {
	s := NewServer(Config{MaxResident: 3})
	defer s.Close()
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, n := range names {
		if err := s.Create(n, "mgrid"); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				name := names[(g+i)%len(names)]
				switch i % 4 {
				case 0:
					_ = s.PostEvent(name, broker.Event{Name: "telemetry", Attrs: map[string]any{}})
				case 1:
					_, _ = s.Stat(name)
				case 2:
					_ = s.Evict(name) // racing evicts may fail; that's fine
				case 3:
					_ = s.Execute(name, script.New("touch"))
				}
			}
		}(g)
	}
	wg.Wait()
	// Every tenant must still be reachable and the cap must hold.
	if got := s.Resident(); got > 3 {
		t.Errorf("resident = %d, want <= 3", got)
	}
	for _, n := range names {
		if _, err := s.Stat(n); err != nil {
			t.Errorf("tenant %s lost: %v", n, err)
		}
	}
}

// TestServeOverWire runs the server behind remote.NewRouterServer and
// drives the full client surface: control verbs, tenant sessions, routed
// events and rejection of unknown tenants.
func TestServeOverWire(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	srv, err := remote.NewRouterServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := remote.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Control("create", "acme", map[string]any{"bundle": "mgrid"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Control("create", "acme", map[string]any{"bundle": "mgrid"}); err == nil {
		t.Error("duplicate create over wire must fail")
	}
	sess := c.Session("acme")
	if err := sess.PostEvent(broker.Event{Name: "telemetry", Attrs: map[string]any{}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Session("ghost").PostEvent(broker.Event{Name: "x"}); err == nil {
		t.Error("unknown tenant must be refused at the wire")
	}
	attrs, err := c.Control("stat", "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if attrs["resident"] != true || attrs["bundle"] != "mgrid" {
		t.Errorf("stat attrs = %v", attrs)
	}
	if _, err := c.Control("evict", "acme", nil); err != nil {
		t.Fatal(err)
	}
	attrs, err = c.Control("snapshot", "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap, _ := attrs["snapshot"].(string); len(snap) == 0 {
		t.Error("snapshot verb returned nothing")
	}
	// Touching the evicted tenant over the wire rehydrates it.
	if err := sess.PostEvent(broker.Event{Name: "telemetry", Attrs: map[string]any{}}); err != nil {
		t.Fatal(err)
	}
	attrs, err = c.Control("tenants", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if list, _ := attrs["tenants"].([]any); len(list) != 1 || list[0] != "acme" {
		t.Errorf("tenants = %v", attrs["tenants"])
	}
	if _, err := c.Control("obs", "", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Control("bogus", "", nil); err == nil {
		t.Error("unknown verb must fail")
	}
}

// TestAccountingSurvivesEviction pins the churn-proof ledger: a tenant's
// event counters accumulate across evict/rehydrate cycles (the obs bundle
// is parked with the snapshot), so posted = delivered + failures +
// deadlettered + dropped holds for the tenant's whole life, not per
// residency.
func TestAccountingSurvivesEviction(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if err := s.Create("acme", "cml"); err != nil {
		t.Fatal(err)
	}
	post := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.PostEvent("acme", broker.Event{
				Name:  "mediaFailure",
				Attrs: map[string]any{"session": "s1", "key": fmt.Sprint(i)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	post(10)
	if err := s.Evict("acme"); err != nil {
		t.Fatal(err)
	}

	// Parked: the ledger must already show the first burst, fully drained.
	a, err := s.Accounting("acme")
	if err != nil {
		t.Fatal(err)
	}
	if a.Resident || a.Posted != 10 || !a.Exact() {
		t.Fatalf("parked ledger wrong: %+v", a)
	}

	post(15) // rehydrates on first post
	if err := s.Evict("acme"); err != nil {
		t.Fatal(err)
	}
	a, err = s.Accounting("acme")
	if err != nil {
		t.Fatal(err)
	}
	if a.Posted != 25 {
		t.Fatalf("ledger reset across rehydrate: posted = %d, want 25", a.Posted)
	}
	if !a.Exact() {
		t.Fatalf("accounting not exact after churn: %+v", a)
	}
	if a.Bundle != "cml" {
		t.Errorf("Accounting Bundle = %q", a.Bundle)
	}
	st, err := s.Stat("acme")
	if err != nil {
		t.Fatal(err)
	}
	if st["posted"] != int64(25) {
		t.Errorf("Stat posted = %v, want 25", st["posted"])
	}
}

// TestEvictionKeepsAcknowledgedWrites: eviction waits for in-flight
// submissions, so a submission racing it either fails or is in the
// checkpoint the eviction parks. Without the wait, a write could commit on
// a platform already checkpointed and discarded: acknowledged, then lost
// at the next rehydration. One goroutine submits 300 new objects while
// another evicts the tenant in a loop.
func TestEvictionKeepsAcknowledgedWrites(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if err := s.Create("acme", "cml"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = s.Evict("acme") // fails while the tenant is parked
			}
		}
	}()
	var acked []string
	for i := 0; i < 300; i++ {
		m, _, err := s.Model("acme")
		if err != nil {
			t.Error(err)
			break
		}
		id := fmt.Sprintf("p%03d", i)
		m.NewObject(id, "Person").SetAttr("name", id)
		if _, err := s.SubmitModel("acme", m); err == nil {
			acked = append(acked, id)
		}
	}
	close(done)
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("no submission was acknowledged")
	}
	final, _, err := s.Model("acme")
	if err != nil {
		t.Fatal(err)
	}
	var lost []string
	for _, id := range acked {
		if final.Get(id) == nil {
			lost = append(lost, id)
		}
	}
	if len(lost) > 0 {
		t.Errorf("%d of %d acknowledged writes lost to eviction: %v", len(lost), len(acked), lost)
	}
}

// TestObjectReadAllocsIndependentOfModelSize is the allocation gate of the
// single-object read: Object copies the one object it returns, never the
// model, so it allocates the same for a 10-object and a 1,000-object
// tenant.
func TestObjectReadAllocsIndependentOfModelSize(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	allocs := map[int]float64{}
	for _, n := range []int{10, 1000} {
		name := fmt.Sprintf("n%d", n)
		if err := s.Create(name, "cml"); err != nil {
			t.Fatal(err)
		}
		m := metamodel.NewModel("cml")
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("p%d", i)
			m.NewObject(id, "Person").SetAttr("name", id)
		}
		if _, err := s.SubmitModel(name, m); err != nil {
			t.Fatal(err)
		}
		allocs[n] = testing.AllocsPerRun(200, func() {
			if o, _, err := s.Object(name, "p1"); err != nil || o == nil {
				t.Fatalf("Object(%s, p1) = %v, %v", name, o, err)
			}
		})
	}
	if allocs[10] != allocs[1000] {
		t.Errorf("single-object read allocates %v times at 10 objects but %v at 1000", allocs[10], allocs[1000])
	}
}
