package api

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/serve"
)

// TestHTTPRaceLifecycle hammers one API stack from four directions at
// once — REST writers, event posters, SSE watchers, and an eviction
// churner that keeps parking and rehydrating the very tenants being
// written — then settles the dust and demands exact accounting:
//
//   - every conformant write was accepted (the per-tenant write lock
//     plus rehydration must never lose or double-apply an edit);
//   - the final object count per tenant is exactly writers×objects;
//   - every watcher saw a snapshot and at least one delta;
//   - the stack tears down to the baseline goroutine count.
//
// Run it under -race; the CI http-smoke leg does.
func TestHTTPRaceLifecycle(t *testing.T) {
	const (
		tenants   = 4
		writers   = 4 // per tenant
		patches   = 6 // per writer after its create
		events    = 25
		churns    = 40
		maxLive   = 2 // < tenants, so residency churns constantly
		watchWait = 5 * time.Second
	)

	baseline := runtime.NumGoroutine()

	s := serve.NewServer(serve.Config{MaxResident: maxLive})
	a, err := New(Config{Serve: s})
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(a)
	e := &env{t: t, srv: s, api: a, ts: ts}

	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
		e.createTenant(names[i], "cml")
	}

	// SSE watchers: one per tenant, counting snapshot and delta frames.
	type watchStat struct {
		snapshots atomic.Int64
		deltas    atomic.Int64
	}
	stats := make([]*watchStat, tenants)
	watchCtx, stopWatch := context.WithCancel(context.Background())
	var watchWG sync.WaitGroup
	for i, name := range names {
		st := &watchStat{}
		stats[i] = st
		watchWG.Add(1)
		go func(name string, st *watchStat) {
			defer watchWG.Done()
			req, err := http.NewRequestWithContext(watchCtx, "GET", ts.URL+"/tenants/"+name+"/watch", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Errorf("watch %s: %v", name, err)
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			for sc.Scan() {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, "event: snapshot"):
					st.snapshots.Add(1)
				case strings.HasPrefix(line, "event: delta"):
					st.deltas.Add(1)
				}
			}
		}(name, st)
	}

	// Writers: each owns object w<k> on its tenant — one PUT, then
	// PATCH trains. Distinct ids per writer keep every write conformant,
	// so acceptance must be total.
	var wrote atomic.Int64
	var wg sync.WaitGroup
	for _, name := range names {
		for k := 0; k < writers; k++ {
			wg.Add(1)
			go func(name string, k int) {
				defer wg.Done()
				id := fmt.Sprintf("w%d", k)
				url := "/tenants/" + name + "/models/cml/objects/" + id
				code, body := e.do("PUT", url, map[string]any{
					"class": "Person", "attrs": map[string]any{"name": id},
				})
				if code != http.StatusCreated {
					t.Errorf("PUT %s/%s: %d %s", name, id, code, body)
					return
				}
				wrote.Add(1)
				for p := 0; p < patches; p++ {
					code, body := e.do("PATCH", url, map[string]any{
						"attrs": map[string]any{"role": fmt.Sprintf("r%d", p)},
					})
					if code != http.StatusOK {
						t.Errorf("PATCH %s/%s #%d: %d %s", name, id, p, code, body)
						return
					}
					wrote.Add(1)
				}
			}(name, k)
		}
	}

	// Event posters: telemetry through the same mux. A 503 is honest
	// backpressure — the tenant's queue filled while it was being
	// evicted or hammered — and the contract is that a retry lands, so
	// the poster retries until accepted and the accounting stays exact.
	var posted atomic.Int64
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				for attempt := 0; ; attempt++ {
					code, body := e.do("POST", "/tenants/"+name+"/events", map[string]any{
						"name": "telemetry", "attrs": map[string]any{"load": float64(i)},
					})
					if code == http.StatusAccepted {
						posted.Add(1)
						break
					}
					if code != http.StatusServiceUnavailable || attempt > 500 {
						t.Errorf("event %s #%d: %d %s", name, i, code, body)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(name)
	}

	// Churner: evict tenants round-robin while everything above runs.
	// Evicting a busy tenant is allowed to fail; the point is that the
	// next request transparently rehydrates whatever was parked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churns; i++ {
			s.Evict(names[i%tenants])
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()

	// Exact accounting: all conformant writes and events were accepted.
	wantWrites := int64(tenants * writers * (1 + patches))
	if got := wrote.Load(); got != wantWrites {
		t.Errorf("accepted writes = %d, want %d", got, wantWrites)
	}
	if got := posted.Load(); got != int64(tenants*events) {
		t.Errorf("accepted events = %d, want %d", got, tenants*events)
	}
	// Exact state: each tenant holds exactly its writers' objects, and
	// every surviving model conforms.
	for _, name := range names {
		m, mm, err := s.Model(name)
		if err != nil {
			t.Fatalf("tenant %s lost after churn: %v", name, err)
		}
		if m.Len() != writers {
			t.Errorf("tenant %s: %d objects, want %d", name, m.Len(), writers)
		}
		if err := m.Validate(mm); err != nil {
			t.Errorf("tenant %s stopped conforming: %v", name, err)
		}
	}

	// Watchers must have seen the snapshot and live deltas despite the
	// churn — the stream survives evict/rehydrate cycles.
	deadline := time.Now().Add(watchWait)
	for i := range stats {
		for stats[i].deltas.Load() == 0 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if stats[i].snapshots.Load() == 0 {
			t.Errorf("watcher %s never saw its snapshot frame", names[i])
		}
		if stats[i].deltas.Load() == 0 {
			t.Errorf("watcher %s never saw a delta frame", names[i])
		}
	}

	// Teardown: cancel watchers, close the stack, and require the
	// goroutine count to settle back to the baseline.
	stopWatch()
	watchWG.Wait()
	a.Close()
	ts.Close()
	s.Close()

	deadline = time.Now().Add(watchWait)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d alive, baseline %d\n%s", got, baseline, buf[:n])
	}
}

// TestWriteLockTableHoldsOnlyInFlightWrites: the per-tenant write locks
// live only while a write on the tenant is in flight. Writes that name
// unknown tenants (each a 404) and concurrent writes to a real tenant
// leave the table empty; the real tenant's writes still serialise, so
// every one of them is accepted.
func TestWriteLockTableHoldsOnlyInFlightWrites(t *testing.T) {
	e := newEnv(t, serve.Config{})
	e.createTenant("real", "cml")
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			url := fmt.Sprintf("/tenants/real/models/cml/objects/w%d", k)
			if code, body := e.do("PUT", url, map[string]any{
				"class": "Person", "attrs": map[string]any{"name": "w"},
			}); code != http.StatusCreated {
				t.Errorf("PUT %s: %d %s", url, code, body)
			}
			for p := 0; p < 3; p++ {
				if code, body := e.do("PATCH", url, map[string]any{
					"attrs": map[string]any{"role": fmt.Sprintf("r%d", p)},
				}); code != http.StatusOK {
					t.Errorf("PATCH %s: %d %s", url, code, body)
				}
			}
		}(k)
	}
	for i := 0; i < 50; i++ {
		method := "PATCH"
		if i%5 == 0 {
			method = "DELETE"
		}
		url := fmt.Sprintf("/tenants/ghost%d/models/cml/objects/x", i)
		if code, body := e.do(method, url, map[string]any{"attrs": map[string]any{"role": "r"}}); code != http.StatusNotFound {
			t.Errorf("%s %s: %d %s, want 404", method, url, code, body)
		}
	}
	wg.Wait()
	e.api.mu.Lock()
	defer e.api.mu.Unlock()
	if n := len(e.api.writers); n != 0 {
		t.Errorf("write-lock table holds %d entries after every write finished, want 0", n)
	}
}
