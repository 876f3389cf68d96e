package smartspace

import (
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
)

func TestEnterLeaveLifecycle(t *testing.T) {
	var events []broker.Event
	s := NewSpace(func(e broker.Event) { events = append(events, e) })
	if err := s.Enter("lamp1", "lamp"); err != nil {
		t.Fatal(err)
	}
	if err := s.Enter("lamp1", ""); err == nil {
		t.Error("double enter must fail")
	}
	if err := s.Leave("lamp1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave("lamp1"); err == nil {
		t.Error("double leave must fail")
	}
	// Re-entry of a known object needs no kind.
	if err := s.Enter("lamp1", ""); err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Name)
	}
	if got := strings.Join(kinds, ","); got != "objectEntered,objectLeft,objectEntered" {
		t.Errorf("events: %s", got)
	}
}

func TestEnterUnknownWithoutKind(t *testing.T) {
	s := NewSpace(nil)
	if err := s.Enter("x", ""); err == nil {
		t.Error("first entry without kind must fail")
	}
}

func TestProperties(t *testing.T) {
	var events []broker.Event
	s := NewSpace(func(e broker.Event) { events = append(events, e) })
	if err := s.Enter("t1", "thermostat"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProperty("t1", "setpoint", 21.5); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProperty("t1", "mode", "heat"); err != nil {
		t.Fatal(err)
	}
	o, ok := s.Object("t1")
	if !ok {
		t.Fatal("Object")
	}
	if v, _ := o.Prop("setpoint"); v != 21.5 {
		t.Errorf("setpoint: %v", v)
	}
	if got := strings.Join(o.PropNames(), ","); got != "mode,setpoint" {
		t.Errorf("props: %s", got)
	}
	if err := s.SetProperty("ghost", "p", 1); err == nil {
		t.Error("unknown object")
	}
	if err := s.Leave("t1"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProperty("t1", "p", 1); err == nil {
		t.Error("absent object must reject SetProperty")
	}
	found := false
	for _, e := range events {
		if v := e.Attrs["value"]; e.Name == "propertyChanged" && e.Str("prop") == "setpoint" && v == 21.5 {
			found = true
		}
	}
	if !found {
		t.Error("propertyChanged event missing")
	}
}

func TestObjectCopyIsolation(t *testing.T) {
	s := NewSpace(nil)
	if err := s.Enter("d1", "door"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProperty("d1", "locked", true); err != nil {
		t.Fatal(err)
	}
	o, _ := s.Object("d1")
	o.props["locked"] = false
	real, _ := s.Object("d1")
	if v, _ := real.Prop("locked"); v != true {
		t.Error("Object must return an isolated copy")
	}
	if _, ok := s.Object("ghost"); ok {
		t.Error("ghost object")
	}
}

func TestPresentAndKnown(t *testing.T) {
	s := NewSpace(nil)
	for _, id := range []string{"b", "a", "c"} {
		if err := s.Enter(id, "lamp"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Leave("b"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(s.Present(), ","); got != "a,c" {
		t.Errorf("Present: %s", got)
	}
	if got := strings.Join(s.Known(), ","); got != "a,b,c" {
		t.Errorf("Known: %s", got)
	}
}

func TestTrace(t *testing.T) {
	s := NewSpace(nil)
	if err := s.Enter("x", "lamp"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetProperty("x", "on", true); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace().String()
	for _, want := range []string{`enter object:x kind="lamp"`, `setProperty object:x prop="on" value=true`} {
		if !strings.Contains(tr, want) {
			t.Errorf("trace missing %q:\n%s", want, tr)
		}
	}
}
