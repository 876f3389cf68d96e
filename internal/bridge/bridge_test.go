package bridge

import (
	"errors"
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
	"github.com/mddsm/mddsm/internal/remote"
	"github.com/mddsm/mddsm/internal/script"
)

// capture is a Dispatch recording translated commands.
type capture struct {
	trace script.Trace
	fail  bool
}

func (c *capture) dispatch(cmd script.Command) error {
	if c.fail {
		return errors.New("target down")
	}
	c.trace.Record(cmd)
	return nil
}

func TestRuleMatchingAndTranslation(t *testing.T) {
	target := &capture{}
	b := New("b").
		AddRule(MapRule("onEnter", "objectEntered", "",
			script.Template{Op: "greet", Target: "object:{object}"}, target.dispatch)).
		AddRule(MapRule("guarded", "objectEntered", "object == 'vip'",
			script.Template{Op: "rollOutRedCarpet", Target: "object:{object}"}, target.dispatch)).
		AddRule(MapRule("other", "objectLeft", "",
			script.Template{Op: "farewell", Target: "object:{object}"}, target.dispatch))

	b.OnEvent(broker.Event{Name: "objectEntered", Attrs: map[string]any{"object": "badge1"}})
	b.OnEvent(broker.Event{Name: "objectEntered", Attrs: map[string]any{"object": "vip"}})
	b.OnEvent(broker.Event{Name: "somethingElse"})

	got := strings.Join(target.trace.Lines(), ";")
	want := "greet object:badge1;greet object:vip;rollOutRedCarpet object:vip"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
	if len(b.Failures()) != 0 {
		t.Errorf("failures: %v", b.Failures())
	}
}

func TestFailureAccumulation(t *testing.T) {
	target := &capture{fail: true}
	b := New("b").
		AddRule(MapRule("bad-guard", "e", "1 > 'x'",
			script.Template{Op: "x", Target: "t"}, target.dispatch)).
		AddRule(MapRule("bad-template", "e", "",
			script.Template{Op: "x", Target: "{ghost}"}, target.dispatch)).
		AddRule(MapRule("no-target", "e", "",
			script.Template{Op: "x", Target: "t"}, nil)).
		AddRule(MapRule("failing-target", "e", "",
			script.Template{Op: "x", Target: "t"}, target.dispatch))
	b.OnEvent(broker.Event{Name: "e"})
	fails := b.Failures()
	if len(fails) != 4 {
		t.Fatalf("failures: %v", fails)
	}
	for i, want := range []string{"guard", "unbound", "no target", "target down"} {
		if !strings.Contains(fails[i], want) {
			t.Errorf("failure %d: %q missing %q", i, fails[i], want)
		}
	}
}

// TestSmartSpaceToCVMBridge is the §IX interoperability scenario: a smart
// conference room. When a participant's badge enters the 2SVM-managed
// space, the bridge sets up a CVM communication session for them.
func TestSmartSpaceToCVMBridge(t *testing.T) {
	room, err := smartspace.New(domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cvm, err := cml.New(domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-establish the conference session on the CVM side.
	d := cvm.Platform.UI.NewDraft()
	d.MustAdd("conf", "Session")
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}

	b := New("room-to-cvm").AddRule(MapRule(
		"badgeJoinsCall", "objectEntered", "contains(object, 'badge-')",
		script.Template{Op: "addParticipant", Target: "session:conf",
			Args: map[string]string{"who": "{object}"}},
		PlatformTarget(cvm.Platform),
	))
	b.Attach(room.Platform)

	// Physical arrivals in the room.
	if err := room.Hub.ObjectEnters("badge-ana", "badge"); err != nil {
		t.Fatal(err)
	}
	if err := room.Hub.ObjectEnters("lamp1", "lamp"); err != nil {
		t.Fatal(err)
	}
	if err := room.Hub.ObjectEnters("badge-bruno", "badge"); err != nil {
		t.Fatal(err)
	}

	sess := cvm.Service.Session("conf")
	if sess == nil {
		t.Fatal("conference session missing")
	}
	got := strings.Join(sess.Participants(), ",")
	if got != "badge-ana,badge-bruno" {
		t.Errorf("participants: %s", got)
	}
	if len(b.Failures()) != 0 {
		t.Errorf("bridge failures: %v", b.Failures())
	}
}

// TestBridgeToRemotePlatform drives a bridge whose target platform lives
// behind the TCP wire: source events translate into commands dispatched to
// a remote.Server-hosted platform.
func TestBridgeToRemotePlatform(t *testing.T) {
	cvm, err := cml.New(domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := cvm.Platform.UI.NewDraft()
	d.MustAdd("conf", "Session")
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}
	srv, err := remote.NewServer(cvm.Platform, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := remote.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	b := New("to-remote-cvm").AddRule(MapRule(
		"join", "objectEntered", "",
		script.Template{Op: "addParticipant", Target: "session:conf",
			Args: map[string]string{"who": "{object}"}},
		client.Call, // remote.Client satisfies the Dispatch shape
	))
	b.OnEvent(broker.Event{Name: "objectEntered", Attrs: map[string]any{"object": "ana"}})
	if fails := b.Failures(); len(fails) != 0 {
		t.Fatalf("failures: %v", fails)
	}
	sess := cvm.Service.Session("conf")
	if got := strings.Join(sess.Participants(), ","); got != "ana" {
		t.Errorf("participants: %s", got)
	}
}
