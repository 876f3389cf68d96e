package comm

import (
	"strings"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/simtime"
)

func TestSessionLifecycle(t *testing.T) {
	var events []broker.Event
	clock := simtime.NewVirtual()
	start := clock.Now()
	s := NewService(clock, func(e broker.Event) { events = append(events, e) })

	if err := s.CreateSession("s1"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddParticipant("s1", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddParticipant("s1", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenStream("s1", "st1", Audio, 64); err != nil {
		t.Fatal(err)
	}
	if err := s.SendData("s1", "st1", 1024); err != nil {
		t.Fatal(err)
	}
	if err := s.ReconfigureStream("s1", "st1", Video, 512); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveParticipant("s1", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseSession("s1"); err != nil {
		t.Fatal(err)
	}

	// Virtual time: 40+30+30+60+5+45+15+(20 stream close)+20 = 265ms.
	if got := clock.Since(start); got != 265*time.Millisecond {
		t.Errorf("virtual time: %v", got)
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Name)
	}
	want := "participantJoined,participantJoined,participantLeft,sessionClosed"
	if got := strings.Join(kinds, ","); got != want {
		t.Errorf("events: %s", got)
	}
	if s.Trace().Len() != 9 {
		t.Errorf("trace length: %d\n%s", s.Trace().Len(), s.Trace())
	}
	if len(s.SessionIDs()) != 0 {
		t.Error("session should be gone")
	}
}

func TestSessionQueries(t *testing.T) {
	s := NewService(nil, nil)
	if err := s.CreateSession("s1"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddParticipant("s1", "zoe"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddParticipant("s1", "amy"); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenStream("s1", "st2", Chat, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenStream("s1", "st1", Audio, 64); err != nil {
		t.Fatal(err)
	}
	sess := s.Session("s1")
	if sess == nil {
		t.Fatal("Session lookup")
	}
	if got := strings.Join(sess.Participants(), ","); got != "amy,zoe" {
		t.Errorf("participants sorted: %s", got)
	}
	if got := strings.Join(sess.Streams(), ","); got != "st1,st2" {
		t.Errorf("streams sorted: %s", got)
	}
	if st := sess.Stream("st1"); st == nil || st.Media != Audio || !st.Up {
		t.Errorf("stream: %+v", st)
	}
	if s.Session("ghost") != nil {
		t.Error("ghost session")
	}
	if got := s.SessionIDs(); len(got) != 1 || got[0] != "s1" {
		t.Errorf("SessionIDs: %v", got)
	}
}

func TestErrorPaths(t *testing.T) {
	s := NewService(nil, nil)
	if err := s.CreateSession("s1"); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		err  error
	}{
		{"dup session", s.CreateSession("s1")},
		{"close unknown", s.CloseSession("ghost")},
		{"add to unknown", s.AddParticipant("ghost", "a")},
		{"remove from unknown", s.RemoveParticipant("ghost", "a")},
		{"remove absent participant", s.RemoveParticipant("s1", "a")},
		{"open in unknown", s.OpenStream("ghost", "st", Audio, 1)},
		{"bad media", s.OpenStream("s1", "st", MediaType("smell"), 1)},
		{"bad bandwidth", s.OpenStream("s1", "st", Audio, 0)},
		{"close unknown stream", s.CloseStream("s1", "ghost")},
		{"close stream unknown session", s.CloseStream("ghost", "st")},
		{"reconfigure unknown session", s.ReconfigureStream("ghost", "st", Audio, 1)},
		{"reconfigure unknown stream", s.ReconfigureStream("s1", "ghost", Audio, 1)},
		{"send unknown session", s.SendData("ghost", "st", 1)},
		{"send unknown stream", s.SendData("s1", "ghost", 1)},
		{"inject unknown session", s.InjectStreamFailure("ghost", "st")},
		{"inject unknown stream", s.InjectStreamFailure("s1", "ghost")},
	}
	for _, c := range checks {
		if c.err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	// Duplicate participant and stream.
	if err := s.AddParticipant("s1", "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddParticipant("s1", "a"); err == nil {
		t.Error("dup participant")
	}
	if err := s.OpenStream("s1", "st", Audio, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenStream("s1", "st", Audio, 10); err == nil {
		t.Error("dup stream")
	}
	// Bad reconfigure args on an existing stream.
	if err := s.ReconfigureStream("s1", "st", MediaType("x"), 10); err == nil {
		t.Error("bad reconfigure media")
	}
	if err := s.ReconfigureStream("s1", "st", Audio, -1); err == nil {
		t.Error("bad reconfigure bandwidth")
	}
}

func TestFailureInjectionAndRecovery(t *testing.T) {
	var events []broker.Event
	s := NewService(nil, func(e broker.Event) { events = append(events, e) })
	if err := s.CreateSession("s1"); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenStream("s1", "st1", Video, 256); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectStreamFailure("s1", "st1"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "streamFailed" {
		t.Fatalf("events: %v", events)
	}
	if err := s.SendData("s1", "st1", 10); err == nil || !strings.Contains(err.Error(), "down") {
		t.Errorf("send on failed stream: %v", err)
	}
	// Recovery via reconfiguration.
	if err := s.ReconfigureStream("s1", "st1", Video, 128); err != nil {
		t.Fatal(err)
	}
	if err := s.SendData("s1", "st1", 10); err != nil {
		t.Errorf("send after recovery: %v", err)
	}
}

func TestFailNext(t *testing.T) {
	s := NewService(nil, nil)
	s.FailNext("createSession")
	if err := s.CreateSession("s1"); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("want injected failure, got %v", err)
	}
	// The failure is consumed.
	if err := s.CreateSession("s1"); err != nil {
		t.Fatal(err)
	}
}

func TestSetLatency(t *testing.T) {
	clock := simtime.NewVirtual()
	s := NewService(clock, nil)
	s.SetLatency("createSession", 500*time.Millisecond)
	start := clock.Now()
	if err := s.CreateSession("s1"); err != nil {
		t.Fatal(err)
	}
	if got := clock.Since(start); got != 500*time.Millisecond {
		t.Errorf("latency override: %v", got)
	}
}

func TestValidMedia(t *testing.T) {
	for _, m := range []MediaType{Audio, Video, Chat} {
		if !ValidMedia(m) {
			t.Errorf("%s must be valid", m)
		}
	}
	if ValidMedia("hologram") {
		t.Error("hologram must be invalid")
	}
}

func TestTraceCanonicalForm(t *testing.T) {
	s := NewService(nil, nil)
	if err := s.CreateSession("s1"); err != nil {
		t.Fatal(err)
	}
	if err := s.OpenStream("s1", "st1", Audio, 64); err != nil {
		t.Fatal(err)
	}
	lines := s.Trace().Lines()
	if lines[0] != "createSession session:s1" {
		t.Errorf("line 0: %q", lines[0])
	}
	if lines[1] != `openStream stream:st1 bandwidth=64 media="audio" session="s1"` {
		t.Errorf("line 1: %q", lines[1])
	}
}
