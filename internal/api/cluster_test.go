package api

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/cluster"
	"github.com/mddsm/mddsm/internal/remote"
	"github.com/mddsm/mddsm/internal/serve"
)

// lateRouter lets the wire server start before the cluster node exists;
// heartbeats need every peer's bound address up front.
type lateRouter struct{ n *cluster.Node }

func (r *lateRouter) Route(tenant string) (remote.Endpoint, error) {
	if r.n == nil {
		return nil, fmt.Errorf("node not ready")
	}
	return r.n.Route(tenant)
}

func (r *lateRouter) Control(verb, tenant string, args map[string]any) (map[string]any, error) {
	if r.n == nil {
		return nil, fmt.Errorf("node not ready")
	}
	return r.n.Control(verb, tenant, args)
}

type clusterMember struct {
	id   string
	srv  *serve.Server
	node *cluster.Node
	wire *remote.Server
	api  *Server
	ts   *httptest.Server
}

// startAPICluster brings up n serve nodes joined as one cluster, each
// with its own HTTP front end, all sharing one placement-redirect map.
func startAPICluster(t *testing.T, n int) []*clusterMember {
	t.Helper()
	members := make([]*clusterMember, n)
	routers := make([]*lateRouter, n)
	peers := make([]cluster.Peer, n)
	for i := range members {
		routers[i] = &lateRouter{}
		wire, err := remote.NewRouterServer(routers[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("n%d", i)
		peers[i] = cluster.Peer{ID: id, Addr: wire.Addr()}
		members[i] = &clusterMember{id: id, wire: wire}
	}
	peerHTTP := make(map[string]string) // shared; filled once listeners exist
	for i, m := range members {
		m.srv = serve.NewServer(serve.Config{MaxResident: 8})
		node, err := cluster.New(m.srv, cluster.Config{
			NodeID:            m.id,
			Peers:             peers,
			HeartbeatInterval: 20 * time.Millisecond,
			Seed:              42 + int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		m.node = node
		routers[i].n = node
		m.api, err = New(Config{Serve: m.srv, Cluster: node, PeerHTTP: peerHTTP})
		if err != nil {
			t.Fatal(err)
		}
		m.ts = httptest.NewServer(m.api)
		peerHTTP[m.id] = m.ts.URL
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.api.Close()
			m.ts.Close()
			m.wire.Close()
			m.node.Close()
			m.srv.Close()
		}
	})
	return members
}

// tenantOwnedBy probes candidate names until placement puts one on the
// wanted member.
func tenantOwnedBy(t *testing.T, node *cluster.Node, owner string) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("ct%d", i)
		if node.Owner(name) == owner {
			return name
		}
	}
	t.Fatalf("no candidate tenant hashed onto %s", owner)
	return ""
}

// TestHTTPClusterRedirectE2E is the acceptance demo against a two-node
// cluster: create a tenant over HTTP, PATCH an object, observe the delta
// on /watch, read the model back conformant, and scrape non-empty
// /metrics — with the create deliberately sent to the NON-owner node so
// one request in the flow is served via a 307 placement redirect.
func TestHTTPClusterRedirectE2E(t *testing.T) {
	members := startAPICluster(t, 2)
	n0, n1 := members[0], members[1]

	// Both nodes agree on placement for a tenant owned by n1.
	tenant := tenantOwnedBy(t, n0.node, n1.id)
	if got := n1.node.Owner(tenant); got != n1.id {
		t.Fatalf("placement disagreement: n1 says %s owns %q", got, tenant)
	}
	base := "/tenants/" + tenant

	// Step 1: dial the WRONG node. The raw response must be a 307 whose
	// Location points at the owner, preserving the request URI.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	req, err := http.NewRequest("POST", n0.ts.URL+base, strings.NewReader(`{"bundle":"cml"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner answered %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != n1.ts.URL+base {
		t.Fatalf("redirect Location = %q, want %q", loc, n1.ts.URL+base)
	}

	// Step 2: the same create through a normal client follows the
	// redirect and lands on the owner.
	e0 := &env{t: t, srv: n0.srv, api: n0.api, ts: n0.ts}
	e1 := &env{t: t, srv: n1.srv, api: n1.api, ts: n1.ts}
	code, body := e0.do("POST", base, map[string]any{"bundle": "cml"})
	if code != http.StatusCreated {
		t.Fatalf("redirected create: %d %s", code, body)
	}
	if _, _, err := n1.srv.Model(tenant); err != nil {
		t.Fatalf("tenant did not land on its owner: %v", err)
	}

	// Step 3: open /watch on the owner, then PUT + PATCH via the
	// non-owner (each bouncing through the redirect) and observe the
	// delta frame arrive on the stream.
	watchResp, err := n1.ts.Client().Get(n1.ts.URL + base + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer watchResp.Body.Close()
	sc := bufio.NewScanner(watchResp.Body)
	for sc.Scan() && sc.Text() != "" { // snapshot frame ends at the blank line
	}

	if code, body := e0.do("PUT", base+"/models/cml/objects/p0",
		objectDoc{Class: "Person", Attrs: map[string]any{"name": "alice"}}); code != http.StatusCreated {
		t.Fatalf("redirected PUT: %d %s", code, body)
	}
	if code, body := e0.do("PATCH", base+"/models/cml/objects/p0",
		objectDoc{Attrs: map[string]any{"role": "chair"}}); code != http.StatusOK {
		t.Fatalf("redirected PATCH: %d %s", code, body)
	}
	sawDelta := false
	done := time.After(5 * time.Second)
	frames := make(chan string, 16)
	go func() {
		for sc.Scan() {
			frames <- sc.Text()
		}
		close(frames)
	}()
scan:
	for {
		select {
		case line, ok := <-frames:
			if !ok {
				break scan
			}
			if strings.HasPrefix(line, "data: ") && strings.Contains(line, "set-attr") &&
				strings.Contains(line, "chair") {
				sawDelta = true
				break scan
			}
		case <-done:
			break scan
		}
	}
	if !sawDelta {
		t.Fatal("the PATCH delta never arrived on the owner's /watch stream")
	}

	// Step 4: read back through the non-owner; the committed model must
	// conform and carry the patched attribute.
	code, body = e0.do("GET", base+"/models/cml/objects/p0", nil)
	if code != http.StatusOK || !strings.Contains(string(body), `"role": "chair"`) {
		t.Fatalf("redirected read-back: %d %s", code, body)
	}
	m, mm, err := n1.srv.Model(tenant)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(mm); err != nil {
		t.Fatalf("served model does not conform: %v", err)
	}

	// Step 5: both nodes expose non-empty metrics; the non-owner counted
	// its redirects, the owner counted the writes and its tenant label.
	code, page0 := e0.do("GET", "/metrics", nil)
	if code != http.StatusOK || len(page0) == 0 {
		t.Fatalf("n0 /metrics: %d (%d bytes)", code, len(page0))
	}
	if !strings.Contains(string(page0), "mddsm_api_redirects") ||
		strings.Contains(string(page0), "mddsm_api_redirects 0\n") {
		t.Fatalf("n0 counted no placement redirects:\n%s", page0)
	}
	code, page1 := e1.do("GET", "/metrics", nil)
	if code != http.StatusOK || !strings.Contains(string(page1), `tenant="`+tenant+`"`) {
		t.Fatalf("n1 /metrics lacks the tenant's labeled series: %d", code)
	}
	code, health, body := e0.getHealth()
	if code != http.StatusOK || health.Status != "ok" || health.Node != n0.id ||
		strings.Join(health.Members, ",") != n0.id+","+n1.id {
		t.Fatalf("n0 /healthz: %d %s", code, body)
	}

	// Step 6: a tenant owned by the dialled node is served locally —
	// no redirect on the fast path.
	local := tenantOwnedBy(t, n0.node, n0.id)
	req, err = http.NewRequest("POST", n0.ts.URL+"/tenants/"+local, strings.NewReader(`{"bundle":"cml"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("locally-owned create answered %d, want 201 without redirect", resp.StatusCode)
	}
}
