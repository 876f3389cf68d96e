package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/serve"
)

// healthDoc is the /healthz answer.
type healthDoc struct {
	Status   string   `json:"status"`
	Resident int      `json:"resident"`
	Tenants  int      `json:"tenants"`
	Node     string   `json:"node"`
	Members  []string `json:"members"`
}

// getHealth fetches /healthz and decodes its document.
func (e *env) getHealth() (int, healthDoc, []byte) {
	e.t.Helper()
	code, body := e.do("GET", "/healthz", nil)
	var doc healthDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		e.t.Fatalf("/healthz body is not JSON: %v\n%s", err, body)
	}
	return code, doc, body
}

// TestHealthzIsLiveness: /healthz answers whether the node is up. Events
// that fail on one tenant are that tenant's accounting — its dead letters
// and counters — and never turn the node's answer away from 200 "ok".
func TestHealthzIsLiveness(t *testing.T) {
	in := fault.NewInjector(1)
	e := newEnv(t, serve.Config{Injector: in})
	e.createTenant("a", "cml")
	e.createTenant("b", "cml")
	in.Arm(broker.SiteEvent, fault.Spec{Kind: fault.Error, Limit: 6})
	for i := 0; i < 6; i++ {
		code, body := e.do("POST", "/tenants/a/events",
			map[string]any{"name": "probe", "attrs": map[string]any{"seq": i}})
		if code != http.StatusAccepted {
			t.Fatalf("post %d: %d %s", i, code, body)
		}
	}
	polls := 0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); polls++ {
		code, doc, body := e.getHealth()
		if code != http.StatusOK || doc.Status != "ok" {
			t.Fatalf("poll %d: %d %s", polls, code, body)
		}
		if doc.Resident != 2 || doc.Tenants != 2 {
			t.Fatalf("poll %d: resident %d, tenants %d, want 2 and 2", polls, doc.Resident, doc.Tenants)
		}
	}
	// The six failures happened, and they are tenant a's alone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := e.srv.Stat("a")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(st["deadlettered"]) == "6" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant a dead-lettered %v events, want 6", st["deadlettered"])
		}
		time.Sleep(time.Millisecond)
	}
	st, err := e.srv.Stat("b")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(st["deadlettered"]) != "0" {
		t.Errorf("tenant b dead-lettered %v events, want 0", st["deadlettered"])
	}
}
