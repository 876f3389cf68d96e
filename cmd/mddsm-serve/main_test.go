package main

import (
	"fmt"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/remote"
)

// TestDaemonLifecycle boots the daemon on an ephemeral port, provisions a
// tenant over the wire, posts an event, and shuts down via the signal
// channel (the SIGTERM drain path).
func TestDaemonLifecycle(t *testing.T) {
	stop := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-max-resident", "2", "-obs"},
			func(addr string) { addrCh <- addr }, stop)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never came up")
	}

	c, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Control("create", "acme", map[string]any{"bundle": "mgrid"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Session("acme").PostEvent(broker.Event{Name: "telemetry", Attrs: map[string]any{}}); err != nil {
		t.Fatal(err)
	}
	attrs, err := c.Control("stat", "acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if attrs["resident"] != true {
		t.Errorf("stat = %v", attrs)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-addr", "not-an-address"}, nil, nil); err == nil {
		t.Error("bad address must fail")
	}
	// -validate-mode was removed: refused at flag parsing.
	if err := run([]string{"-validate-mode", "compiled"}, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-validate-mode: want a flag parse error, got %v", err)
	}
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them — good enough for wiring a test cluster whose members must know
// each other's address before any of them starts.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

// TestClusterFlags boots two daemons as one logical broker and drives a
// tenant through the member that does NOT own it: placement proxies the
// control plane and forwards the events to the owner.
func TestClusterFlags(t *testing.T) {
	addrs := freePorts(t, 2)
	peers := fmt.Sprintf("n0=%s,n1=%s", addrs[0], addrs[1])
	stops := make([]chan os.Signal, 2)
	dones := make([]chan error, 2)
	for i := range stops {
		stops[i] = make(chan os.Signal, 1)
		dones[i] = make(chan error, 1)
		ready := make(chan string, 1)
		args := []string{"-addr", addrs[i], "-node-id", fmt.Sprintf("n%d", i),
			"-peers", peers, "-heartbeat", "50ms"}
		go func(i int) {
			dones[i] <- run(args, func(addr string) { ready <- addr }, stops[i])
		}(i)
		select {
		case <-ready:
		case err := <-dones[i]:
			t.Fatalf("member %d exited early: %v", i, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("member %d never came up", i)
		}
	}
	shutdown := func() {
		for i := range stops {
			stops[i] <- syscall.SIGTERM
		}
		for i := range dones {
			select {
			case err := <-dones[i]:
				if err != nil {
					t.Errorf("member %d drain: %v", i, err)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("member %d did not drain", i)
			}
		}
	}
	defer shutdown()

	c, err := remote.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mem, err := c.Control("cluster.members", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if list, _ := mem["members"].([]any); len(list) != 2 {
		t.Fatalf("cluster.members = %v, want 2 members", mem)
	}
	// Create a spread of tenants through member 0 only: placement must
	// land some on each member, proxying the creates that belong to n1.
	c1, err := remote.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	names := make([]string, 6)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
		if _, err := c.Control("create", names[i], map[string]any{"bundle": "cml"}); err != nil {
			t.Fatal(err)
		}
	}
	local := func(cl *remote.Client) int {
		out, err := cl.Control("tenants", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		list, _ := out["tenants"].([]any)
		return len(list)
	}
	n0Local, n1Local := local(c), local(c1)
	if n0Local == 0 || n1Local == 0 || n0Local+n1Local != len(names) {
		t.Fatalf("placement did not spread: n0 hosts %d, n1 hosts %d", n0Local, n1Local)
	}
	// Drive every tenant through member 0; posts for n1's tenants cross
	// the wire. Stat through member 1 proxies the other way.
	for i, name := range names {
		if err := c.Session(name).PostEvent(broker.Event{Name: "telemetry", Attrs: map[string]any{"n": i}}); err != nil {
			t.Fatalf("post %s via n0: %v", name, err)
		}
	}
	for _, name := range names {
		st, err := c1.Control("stat", name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st["bundle"] != "cml" {
			t.Errorf("stat %s through member 1 = %v", name, st)
		}
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("n0=127.0.0.1:1, n1=127.0.0.1:2")
	if err != nil || len(peers) != 2 || peers[1].ID != "n1" {
		t.Fatalf("parsePeers = %v, %v", peers, err)
	}
	if _, err := parsePeers("garbage"); err == nil {
		t.Error("malformed entry must fail")
	}
	if err := run([]string{"-addr", "127.0.0.1:0", "-peers", "n0=1:1"}, nil, nil); err == nil {
		t.Error("-peers without -node-id must fail")
	}
}
