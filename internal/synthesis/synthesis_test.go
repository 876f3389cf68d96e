package synthesis

import (
	"errors"
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/script"
)

// commDSML is a miniature communication DSML: Session contains Streams and
// references participants.
func commDSML(t testing.TB) *metamodel.Metamodel {
	t.Helper()
	mm := metamodel.New("mini-cml")
	mm.MustAddEnum(&metamodel.Enum{Name: "Media", Literals: []string{"audio", "video", "chat"}})
	mm.MustAddClass(&metamodel.Class{Name: "Session", References: []metamodel.Reference{
		{Name: "streams", Target: "Stream", Containment: true, Many: true},
		{Name: "participants", Target: "Person", Many: true},
	}})
	mm.MustAddClass(&metamodel.Class{Name: "Stream", Attributes: []metamodel.Attribute{
		{Name: "media", Kind: metamodel.KindEnum, EnumType: "Media", Required: true},
		{Name: "bandwidth", Kind: metamodel.KindFloat, Default: 64.0},
	}})
	mm.MustAddClass(&metamodel.Class{Name: "Person", Attributes: []metamodel.Attribute{
		{Name: "name", Kind: metamodel.KindString, Required: true},
	}})
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	return mm
}

// commLTS encodes the synthesis semantics for the miniature DSML.
func commLTS() *lts.LTS {
	l := lts.New("mini-cml-sem", "run")
	l.On("run", "add-object:Session", "", "run",
		lts.CommandTemplate{Op: "createSession", Target: "session:{id}"})
	l.On("run", "remove-object:Session", "", "run",
		lts.CommandTemplate{Op: "closeSession", Target: "session:{id}"})
	l.On("run", "add-object:Stream", "", "run",
		lts.CommandTemplate{Op: "openStream", Target: "stream:{id}",
			Args: map[string]string{"media": "{media}", "bandwidth": "{bandwidth}"}})
	l.On("run", "remove-object:Stream", "", "run",
		lts.CommandTemplate{Op: "closeStream", Target: "stream:{id}"})
	l.On("run", "set-attr:Stream.media", "", "run",
		lts.CommandTemplate{Op: "setMedia", Target: "stream:{id}",
			Args: map[string]string{"media": "{new}", "was": "{old}"}})
	l.On("run", "add-ref:Session.participants", "", "run",
		lts.CommandTemplate{Op: "addParticipant", Target: "session:{id}",
			Args: map[string]string{"who": "{target}"}})
	l.On("run", "remove-ref:Session.participants", "", "run",
		lts.CommandTemplate{Op: "removeParticipant", Target: "session:{id}",
			Args: map[string]string{"who": "{target}"}})
	l.On("run", "event:streamFailed", "", "run",
		lts.CommandTemplate{Op: "recoverStream", Target: "stream:{stream}"})
	return l
}

type capture struct {
	scripts []*script.Script
	fail    bool
}

func (c *capture) dispatch(s *script.Script) error {
	if c.fail {
		return errors.New("controller rejected")
	}
	c.scripts = append(c.scripts, s)
	return nil
}

func (c *capture) all() string {
	var lines []string
	for _, s := range c.scripts {
		for _, cmd := range s.Commands {
			lines = append(lines, cmd.String())
		}
	}
	return strings.Join(lines, "\n")
}

func newSynth(t *testing.T) (*Synthesis, *capture, *[]*metamodel.Model) {
	t.Helper()
	cap := &capture{}
	var published []*metamodel.Model
	s, err := New(Config{Name: "se", DSML: commDSML(t), LTS: commLTS()},
		cap.dispatch, func(m *metamodel.Model, _ metamodel.ChangeList) { published = append(published, m) })
	if err != nil {
		t.Fatal(err)
	}
	return s, cap, &published
}

func baseModel(t *testing.T) *metamodel.Model {
	t.Helper()
	m := metamodel.NewModel("mini-cml")
	m.NewObject("alice", "Person").SetAttr("name", "Alice")
	m.NewObject("bob", "Person").SetAttr("name", "Bob")
	m.NewObject("s1", "Session").
		SetRef("participants", "alice", "bob").
		SetRef("streams", "st1")
	m.NewObject("st1", "Stream").SetAttr("media", "audio")
	return m
}

func TestInitialSubmissionAgainstEmptyModel(t *testing.T) {
	s, cap, published := newSynth(t)
	out, err := s.Submit(baseModel(t))
	if err != nil {
		t.Fatal(err)
	}
	text := cap.all()
	for _, want := range []string{
		"createSession session:s1",
		`openStream stream:st1 bandwidth=64 media="audio"`,
		`addParticipant session:s1 who="alice"`,
		`addParticipant session:s1 who="bob"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Person objects have no synthesis semantics: silently skipped.
	if strings.Contains(text, "Person") {
		t.Errorf("unexpected person commands:\n%s", text)
	}
	if out.Len() != 4 {
		t.Errorf("script length: %d\n%s", out.Len(), out)
	}
	if len(*published) != 1 {
		t.Errorf("runtime model published: %d", len(*published))
	}
	if s.CurrentModel().Len() != 4 {
		t.Errorf("committed model size")
	}
}

func TestIncrementalChangeProducesMinimalScript(t *testing.T) {
	s, cap, _ := newSynth(t)
	if _, err := s.Submit(baseModel(t)); err != nil {
		t.Fatal(err)
	}
	cap.scripts = nil

	// Change media, drop bob, add a new stream.
	next := baseModel(t)
	next.Get("st1").SetAttr("media", "video")
	next.Get("s1").RemoveRef("participants", "bob")
	next.NewObject("st2", "Stream").SetAttr("media", "chat").SetAttr("bandwidth", 8)
	next.Get("s1").AddRef("streams", "st2")

	out, err := s.Submit(next)
	if err != nil {
		t.Fatal(err)
	}
	text := cap.all()
	for _, want := range []string{
		`setMedia stream:st1 media="video" was="audio"`,
		`removeParticipant session:s1 who="bob"`,
		`openStream stream:st2 bandwidth=8 media="chat"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "createSession") {
		t.Errorf("unchanged session must not be recreated:\n%s", text)
	}
	if out.Len() != 3 {
		t.Errorf("script length: %d\n%s", out.Len(), out)
	}
}

func TestIdenticalResubmissionIsEmpty(t *testing.T) {
	s, cap, _ := newSynth(t)
	if _, err := s.Submit(baseModel(t)); err != nil {
		t.Fatal(err)
	}
	cap.scripts = nil
	out, err := s.Submit(baseModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("no-change submission: %s", out)
	}
}

func TestTeardownSubmission(t *testing.T) {
	s, cap, _ := newSynth(t)
	if _, err := s.Submit(baseModel(t)); err != nil {
		t.Fatal(err)
	}
	cap.scripts = nil
	// Submit an empty model: everything is torn down.
	out, err := s.Submit(metamodel.NewModel("mini-cml"))
	if err != nil {
		t.Fatal(err)
	}
	text := cap.all()
	for _, want := range []string{"closeSession session:s1", "closeStream stream:st1", `removeParticipant session:s1 who="alice"`} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	_ = out
}

func TestNonConformantModelRejected(t *testing.T) {
	s, _, _ := newSynth(t)
	bad := metamodel.NewModel("mini-cml")
	bad.NewObject("x", "Stream") // missing required media
	_, err := s.Submit(bad)
	if err == nil || !strings.Contains(err.Error(), "does not conform") {
		t.Fatalf("got %v", err)
	}
	if s.CurrentModel().Len() != 0 {
		t.Error("failed submission must not commit")
	}
}

func TestDispatchFailureRollsBack(t *testing.T) {
	s, cap, published := newSynth(t)
	cap.fail = true
	_, err := s.Submit(baseModel(t))
	if err == nil || !strings.Contains(err.Error(), "dispatch") {
		t.Fatalf("got %v", err)
	}
	if s.CurrentModel().Len() != 0 {
		t.Error("failed dispatch must not commit the model")
	}
	if len(*published) != 0 {
		t.Error("failed dispatch must not publish")
	}
	// Retry after the controller recovers.
	cap.fail = false
	if _, err := s.Submit(baseModel(t)); err != nil {
		t.Fatal(err)
	}
	if s.CurrentModel().Len() != 4 {
		t.Error("retry must commit")
	}
}

func TestInterpreterErrorRollsBackLTSState(t *testing.T) {
	// An LTS whose emit references an unbound placeholder, and which moves
	// state on a first event; the failed batch must restore the state.
	l := lts.New("fragile", "a")
	l.On("a", "add-object:Session", "", "b")
	l.On("b", "add-object:Stream", "", "b",
		lts.CommandTemplate{Op: "x", Target: "{ghost}"})
	cap := &capture{}
	s, err := New(Config{Name: "se", DSML: commDSML(t), LTS: l}, cap.dispatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := metamodel.NewModel("mini-cml")
	m.NewObject("s1", "Session")
	m.NewObject("st1", "Stream").SetAttr("media", "audio")
	m.Get("s1").SetRef("streams", "st1")
	_, err = s.Submit(m)
	if err == nil {
		t.Fatal("want interpretation error")
	}
	if s.State() != "a" {
		t.Errorf("LTS state must be restored: %s", s.State())
	}
}

func TestOnEventDispatchesRecovery(t *testing.T) {
	s, cap, _ := newSynth(t)
	if _, err := s.Submit(baseModel(t)); err != nil {
		t.Fatal(err)
	}
	cap.scripts = nil
	err := s.OnEvent(broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "st1"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cap.all(), "recoverStream stream:st1") {
		t.Errorf("recovery script:\n%s", cap.all())
	}
	// Unmatched events are ignored.
	cap.scripts = nil
	if err := s.OnEvent(broker.Event{Name: "nothingKnown"}); err != nil {
		t.Fatal(err)
	}
	if len(cap.scripts) != 0 {
		t.Error("unmatched event must not dispatch")
	}
}

func TestOnEventDispatchFailure(t *testing.T) {
	s, cap, _ := newSynth(t)
	if _, err := s.Submit(baseModel(t)); err != nil {
		t.Fatal(err)
	}
	cap.fail = true
	err := s.OnEvent(broker.Event{Name: "streamFailed", Attrs: map[string]any{"stream": "st1"}})
	if err == nil || !strings.Contains(err.Error(), "dispatch") {
		t.Fatalf("got %v", err)
	}
}

func TestConstructorValidation(t *testing.T) {
	dsml := commDSML(t)
	okLTS := commLTS()
	if _, err := New(Config{Name: "s", DSML: nil, LTS: okLTS}, func(*script.Script) error { return nil }, nil); err == nil {
		t.Error("nil DSML")
	}
	if _, err := New(Config{Name: "s", DSML: dsml, LTS: nil}, func(*script.Script) error { return nil }, nil); err == nil {
		t.Error("nil LTS")
	}
	if _, err := New(Config{Name: "s", DSML: dsml, LTS: okLTS}, nil, nil); err == nil {
		t.Error("nil dispatch")
	}
	badLTS := lts.New("bad", "x")
	badLTS.AddTransition(lts.Transition{From: "ghost", Event: "e", To: "x"})
	if _, err := New(Config{Name: "s", DSML: dsml, LTS: badLTS}, func(*script.Script) error { return nil }, nil); err == nil {
		t.Error("invalid LTS")
	}
	badMM := metamodel.New("bad")
	badMM.MustAddClass(&metamodel.Class{Name: "A", Super: "Ghost"})
	if _, err := New(Config{Name: "s", DSML: badMM, LTS: okLTS}, func(*script.Script) error { return nil }, nil); err == nil {
		t.Error("invalid DSML")
	}
}

func TestName(t *testing.T) {
	s, _, _ := newSynth(t)
	if s.Name() != "se" {
		t.Error("Name")
	}
}

func BenchmarkSubmitIncremental(b *testing.B) {
	cap := &capture{}
	s, err := New(Config{Name: "se", DSML: commDSML(b), LTS: commLTS()}, cap.dispatch, nil)
	if err != nil {
		b.Fatal(err)
	}
	m1 := metamodel.NewModel("mini-cml")
	m1.NewObject("s1", "Session")
	m2 := m1.Clone()
	m2.NewObject("st1", "Stream").SetAttr("media", "audio")
	m2.Get("s1").SetRef("streams", "st1")
	if _, err := s.Submit(m1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cap.scripts = cap.scripts[:0]
		if i%2 == 0 {
			if _, err := s.Submit(m2); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := s.Submit(m1); err != nil {
				b.Fatal(err)
			}
		}
	}
}
