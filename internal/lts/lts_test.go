package lts

import (
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/expr"
)

// sessionLTS models a tiny communication-session lifecycle.
func sessionLTS() *LTS {
	l := New("session", "idle")
	l.On("idle", "add-object:Session", "", "active",
		CommandTemplate{Op: "createSession", Target: "session:{id}"})
	l.On("active", "add-ref:participants", "", "active",
		CommandTemplate{Op: "addParticipant", Target: "session:{id}",
			Args: map[string]string{"who": "{target}"}})
	l.On("active", "set-attr:media", "new == 'video'", "active",
		CommandTemplate{Op: "upgradeMedia", Target: "session:{id}",
			Args: map[string]string{"to": "{new}", "from": "{old}"}})
	l.On("active", "set-attr:media", "new != 'video'", "active",
		CommandTemplate{Op: "setMedia", Target: "session:{id}",
			Args: map[string]string{"to": "{new}"}})
	l.On("active", "remove-object:Session", "", "idle",
		CommandTemplate{Op: "closeSession", Target: "session:{id}"})
	return l
}

func TestValidateOK(t *testing.T) {
	if err := sessionLTS().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	l := New("bad", "start")
	l.AddTransition(Transition{From: "ghost", Event: "e", To: "start"})
	if err := l.Validate(); err == nil || !strings.Contains(err.Error(), "unknown source") {
		t.Errorf("want unknown source error, got %v", err)
	}
	l2 := New("bad2", "start")
	l2.AddTransition(Transition{From: "start", Event: "e", To: "ghost"})
	if err := l2.Validate(); err == nil || !strings.Contains(err.Error(), "unknown target") {
		t.Errorf("want unknown target error, got %v", err)
	}
	l3 := New("bad3", "start")
	l3.AddTransition(Transition{From: "start", Event: "", To: "start"})
	if err := l3.Validate(); err == nil || !strings.Contains(err.Error(), "empty event") {
		t.Errorf("want empty event error, got %v", err)
	}
	l4 := &LTS{Name: "bad4", Initial: "nowhere", states: map[string]bool{}}
	if err := l4.Validate(); err == nil || !strings.Contains(err.Error(), "initial state") {
		t.Errorf("want initial state error, got %v", err)
	}
}

// TestValidateRechecksAfterChange: an accepted definition is not checked
// again, but any change to it — a transition, a state, the initial state —
// is.
func TestValidateRechecksAfterChange(t *testing.T) {
	l := sessionLTS()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	l.AddTransition(Transition{From: "ghost", Event: "e", To: "idle"})
	if err := l.Validate(); err == nil {
		t.Fatal("a transition from an undeclared state was accepted")
	}
	l.AddState("ghost")
	if err := l.Validate(); err != nil {
		t.Fatalf("declaring the state did not clear the error: %v", err)
	}
	l.Initial = "nowhere"
	if err := l.Validate(); err == nil {
		t.Fatal("an undeclared initial state was accepted")
	}
}

func TestStepLifecycle(t *testing.T) {
	in := NewInstance(sessionLTS())
	if in.State() != "idle" {
		t.Fatal("initial state")
	}

	cmds, fired, err := in.Step("add-object:Session", expr.MapScope{"id": "s1"})
	if err != nil || !fired {
		t.Fatalf("step 1: %v fired=%v", err, fired)
	}
	if len(cmds) != 1 || cmds[0].String() != "createSession session:s1" {
		t.Fatalf("step 1 cmds: %v", cmds)
	}
	if in.State() != "active" {
		t.Fatal("state after create")
	}

	cmds, fired, err = in.Step("add-ref:participants", expr.MapScope{"id": "s1", "target": "alice"})
	if err != nil || !fired || len(cmds) != 1 {
		t.Fatalf("step 2: %v", err)
	}
	if got := cmds[0].StringArg("who"); got != "alice" {
		t.Errorf("who=%q", got)
	}

	// Guarded branch selection.
	cmds, fired, err = in.Step("set-attr:media", expr.MapScope{"id": "s1", "new": "video", "old": "audio"})
	if err != nil || !fired {
		t.Fatalf("step 3: %v", err)
	}
	if cmds[0].Op != "upgradeMedia" {
		t.Errorf("guard selected %q", cmds[0].Op)
	}
	cmds, _, err = in.Step("set-attr:media", expr.MapScope{"id": "s1", "new": "audio", "old": "video"})
	if err != nil {
		t.Fatal(err)
	}
	if cmds[0].Op != "setMedia" {
		t.Errorf("else-guard selected %q", cmds[0].Op)
	}

	// Unmatched events are silently ignored.
	cmds, fired, err = in.Step("no-such-event", expr.MapScope{})
	if err != nil || fired || cmds != nil {
		t.Fatalf("unmatched event: %v %v %v", cmds, fired, err)
	}

	if _, fired, _ = in.Step("remove-object:Session", expr.MapScope{"id": "s1"}); !fired {
		t.Fatal("close")
	}
	if in.State() != "idle" {
		t.Fatal("state after close")
	}

	in.Reset()
	if in.State() != "idle" {
		t.Fatal("reset")
	}
}

func TestWildcardEvents(t *testing.T) {
	l := New("w", "s")
	l.On("s", "add-object:*", "", "s", CommandTemplate{Op: "noted", Target: "{id}"})
	l.On("s", "*", "", "s", CommandTemplate{Op: "any", Target: "x"})
	in := NewInstance(l)
	cmds, fired, err := in.Step("add-object:Device", expr.MapScope{"id": "d1"})
	if err != nil || !fired || cmds[0].Op != "noted" {
		t.Fatalf("prefix wildcard: %v %v %v", cmds, fired, err)
	}
	cmds, fired, err = in.Step("whatever", expr.MapScope{})
	if err != nil || !fired || cmds[0].Op != "any" {
		t.Fatalf("star wildcard: %v %v %v", cmds, fired, err)
	}
}

func TestDeclarationOrderWins(t *testing.T) {
	l := New("o", "s")
	l.On("s", "e", "", "s", CommandTemplate{Op: "first", Target: "t"})
	l.On("s", "e", "", "s", CommandTemplate{Op: "second", Target: "t"})
	in := NewInstance(l)
	cmds, _, err := in.Step("e", expr.MapScope{})
	if err != nil || cmds[0].Op != "first" {
		t.Fatalf("declaration order: %v %v", cmds, err)
	}
}

func TestGuardErrors(t *testing.T) {
	l := New("g", "s")
	l.On("s", "e", "ghost > 1", "s")
	in := NewInstance(l)
	if _, _, err := in.Step("e", expr.MapScope{}); err == nil {
		t.Fatal("unbound guard variable must error")
	}
}

func TestGuardedNoMatchFallsThrough(t *testing.T) {
	l := New("g2", "s")
	l.On("s", "e", "x > 10", "never")
	in := NewInstance(l)
	_, fired, err := in.Step("e", expr.MapScope{"x": 5})
	if err != nil || fired {
		t.Fatalf("disabled guard must not fire: fired=%v err=%v", fired, err)
	}
	if in.State() != "s" {
		t.Fatal("state must not change")
	}
}

func TestSubstitution(t *testing.T) {
	scope := expr.MapScope{"id": "s1", "n": 42.0, "flag": true, "nest": expr.MapScope{"v": "deep"}}
	tests := []struct {
		tpl  string
		want any
	}{
		{"plain", "plain"},
		{"{id}", "s1"},
		{"{n}", 42.0},    // single placeholder keeps native type
		{"{flag}", true}, // ditto
		{"pre-{id}-post", "pre-s1-post"},
		{"{id}/{n}", "s1/42"},
		{"{nest.v}", "deep"},
	}
	for _, tt := range tests {
		got, err := substitute(tt.tpl, scope)
		if err != nil || got != tt.want {
			t.Errorf("substitute(%q) = %v, %v; want %v", tt.tpl, got, err, tt.want)
		}
	}
	if _, err := substitute("{ghost}", scope); err == nil {
		t.Error("unbound placeholder must error")
	}
	if _, err := substitute("a{ghost}b", scope); err == nil {
		t.Error("unbound interpolated placeholder must error")
	}
	if _, err := substitute("{open", scope); err == nil {
		t.Error("unterminated placeholder must error")
	}
}

func TestEmitArgTypes(t *testing.T) {
	l := New("t", "s")
	l.On("s", "e", "", "s", CommandTemplate{
		Op: "op", Target: "t",
		Args: map[string]string{"num": "{n}", "str": "v-{n}", "lit": "x"},
	})
	in := NewInstance(l)
	cmds, _, err := in.Step("e", expr.MapScope{"n": 7.0})
	if err != nil {
		t.Fatal(err)
	}
	if cmds[0].NumArg("num") != 7 {
		t.Error("native numeric arg")
	}
	if cmds[0].StringArg("str") != "v-7" {
		t.Error("interpolated arg")
	}
	if cmds[0].StringArg("lit") != "x" {
		t.Error("literal arg")
	}
}

func TestEmitErrorPropagates(t *testing.T) {
	l := New("t", "s")
	l.On("s", "e", "", "gone", CommandTemplate{Op: "op", Target: "{ghost}"})
	in := NewInstance(l)
	if _, _, err := in.Step("e", expr.MapScope{}); err == nil {
		t.Fatal("emit error must propagate")
	}
	if in.State() != "s" {
		t.Fatal("failed emit must not change state")
	}
}

func TestCounts(t *testing.T) {
	l := sessionLTS()
	if l.States() != 2 {
		t.Errorf("States: %d", l.States())
	}
	if l.Transitions() != 5 {
		t.Errorf("Transitions: %d", l.Transitions())
	}
}

func TestMatchEvent(t *testing.T) {
	tests := []struct {
		pattern, label string
		want           bool
	}{
		{"a", "a", true},
		{"a", "b", false},
		{"*", "anything", true},
		{"add-*", "add-object", true},
		{"add-*", "remove-object", false},
		{"a*c", "abc", false}, // only suffix wildcards supported
	}
	for _, tt := range tests {
		if got := matchEvent(tt.pattern, tt.label); got != tt.want {
			t.Errorf("matchEvent(%q, %q) = %v", tt.pattern, tt.label, got)
		}
	}
}

func TestEventPatternsAndEmittedOps(t *testing.T) {
	l := sessionLTS()
	patterns := l.EventPatterns()
	if len(patterns) != 5 || patterns[0] != "add-object:Session" {
		t.Errorf("patterns: %v", patterns)
	}
	ops := l.EmittedOps()
	want := "addParticipant,closeSession,createSession,setMedia,upgradeMedia"
	if strings.Join(ops, ",") != want {
		t.Errorf("emitted ops: %v", ops)
	}
	// Templated ops are skipped.
	l2 := New("t", "s")
	l2.On("s", "e", "", "s", CommandTemplate{Op: "{dynamic}", Target: "t"})
	if len(l2.EmittedOps()) != 0 {
		t.Errorf("templated op must be skipped: %v", l2.EmittedOps())
	}
}

func TestRestore(t *testing.T) {
	in := NewInstance(sessionLTS())
	if _, fired, _ := in.Step("add-object:Session", expr.MapScope{"id": "s"}); !fired {
		t.Fatal("setup")
	}
	if err := in.Restore("idle"); err != nil {
		t.Fatal(err)
	}
	if in.State() != "idle" {
		t.Error("Restore")
	}
	if err := in.Restore("nowhere"); err == nil {
		t.Error("unknown state must fail")
	}
}
