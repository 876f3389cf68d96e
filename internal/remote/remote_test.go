package remote

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
)

// rec is a thread-safe recording adapter.
type rec struct {
	mu    sync.Mutex
	trace script.Trace
}

func (r *rec) Execute(cmd script.Command) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trace.Record(cmd)
	return nil
}

func (r *rec) text() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace.String()
}

// nodePlatform builds a Controller+Broker platform whose commands pass
// through to the recorder and whose unhandled events escape upward.
func nodePlatform(t testing.TB, r *rec) *runtime.Platform {
	t.Helper()
	b := mwmeta.NewBuilder("node", "remote-test")
	b.ControllerLayer("ctl").
		PassthroughAction("pass", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Done().
		BrokerLayer("brk").
		PassthroughAction("pass", "*", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Bind("*", "main")
	p, err := runtime.Build(b.Model(), runtime.Deps{
		Adapters: map[string]broker.Adapter{"main": r},
	}, runtime.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func startServer(t testing.TB, r *rec) (*Server, *runtime.Platform) {
	t.Helper()
	p := nodePlatform(t, r)
	srv, err := NewServer(p, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	p.SetExternalEvents(srv.PublishEvent)
	return srv, p
}

func TestCommandRoundTrip(t *testing.T) {
	r := &rec{}
	srv, _ := startServer(t, r)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cmd := script.NewCommand("setProp", "object:lamp").
		WithArg("prop", "on").WithArg("value", true).WithArg("level", 0.7)
	if err := c.Call(cmd); err != nil {
		t.Fatal(err)
	}
	want := `setProp object:lamp level=0.7 prop="on" value=true`
	if !strings.Contains(r.text(), want) {
		t.Errorf("trace:\n%s", r.text())
	}
}

func TestCommandErrorPropagates(t *testing.T) {
	r := &rec{}
	srv, _ := startServer(t, r)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The platform routes everything, but the broker has no adapter for a
	// missing binding? It does ("*"); instead send an event the endpoint
	// rejects: none — so exercise the error path with a server whose
	// endpoint fails.
	srv2, err := NewServer(failingEndpoint{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	c2, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Call(script.NewCommand("x", "t")); err == nil ||
		!strings.Contains(err.Error(), "endpoint says no") {
		t.Errorf("got %v", err)
	}
	if err := c2.PostEvent(broker.Event{Name: "e"}); err == nil {
		t.Error("event error must propagate")
	}
}

type failingEndpoint struct{}

func (failingEndpoint) Execute(*script.Script) error {
	return &endpointErr{}
}
func (failingEndpoint) DeliverEvent(broker.Event) error {
	return &endpointErr{}
}

type endpointErr struct{}

func (*endpointErr) Error() string { return "endpoint says no" }

func TestEventInjectionAndSubscription(t *testing.T) {
	r := &rec{}
	srv, _ := startServer(t, r)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	events, err := c.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	// Events injected by the client reach the platform's broker; with no
	// handlers they bubble to the top and stream back to subscribers.
	if err := c.PostEvent(broker.Event{Name: "ping", Attrs: map[string]any{"n": 1.0}}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Name != "ping" || ev.Attrs["n"] != 1.0 {
			t.Errorf("event: %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscribed event never arrived")
	}
}

func TestMultipleClientsAndSubscribers(t *testing.T) {
	r := &rec{}
	srv, _ := startServer(t, r)

	c1, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	ev1, err := c1.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := c2.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.PostEvent(broker.Event{Name: "broadcast"}); err != nil {
		t.Fatal(err)
	}
	for i, ch := range []<-chan broker.Event{ev1, ev2} {
		select {
		case ev := <-ch:
			if ev.Name != "broadcast" {
				t.Errorf("subscriber %d: %+v", i, ev)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("subscriber %d never received", i)
		}
	}

	// Concurrent commands from both clients.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if err := c.Call(script.NewCommand("op", "t")); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}([]*Client{c1, c2}[i])
	}
	wg.Wait()
	if got := strings.Count(r.text(), "op t"); got != 50 {
		t.Errorf("commands recorded: %d", got)
	}
}

func TestClientCloseUnblocksAndChannelCloses(t *testing.T) {
	r := &rec{}
	srv, _ := startServer(t, r)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	events, err := c.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // idempotent
	select {
	case _, open := <-events:
		if open {
			t.Error("channel should be closed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("event channel did not close")
	}
	if err := c.Call(script.NewCommand("x", "t")); err == nil {
		t.Error("call after close must fail")
	}
}

func TestServerCloseDropsClients(t *testing.T) {
	r := &rec{}
	srv, _ := startServer(t, r)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv.Close()
	srv.Close() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := c.Call(script.NewCommand("x", "t")); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls should fail after server close")
		}
	}
}

func TestUnknownMessageType(t *testing.T) {
	r := &rec{}
	srv, _ := startServer(t, r)
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.roundTrip(message{Type: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown message type") {
		t.Errorf("got %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to a closed port should fail")
	}
}
