package synthesis

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/script"
)

// buildPair constructs two synthesis layers over the same DSML and LTS:
// one in full-validation mode, one in delta mode.
func buildPair(t *testing.T) (*Synthesis, *capture, *Synthesis, *capture) {
	t.Helper()
	mm := commDSML(t)
	full := &capture{}
	sFull, err := New(Config{Name: "full", DSML: mm, LTS: commLTS()}, full.dispatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	delta := &capture{}
	sDelta, err := New(Config{Name: "delta", DSML: mm, LTS: commLTS(), Delta: true}, delta.dispatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sDelta.delta == nil {
		t.Fatal("delta mode did not engage for a compilable DSML")
	}
	return sFull, full, sDelta, delta
}

// submitBoth submits the same model to both layers and requires identical
// behaviour: same verdict, same emitted commands, same committed model and
// same sequence number.
func submitBoth(t *testing.T, label string, sFull *Synthesis, full *capture, sDelta *Synthesis, delta *capture, m *metamodel.Model) {
	t.Helper()
	scFull, errFull := sFull.Submit(m.Clone())
	scDelta, errDelta := sDelta.Submit(m.Clone())
	if (errFull == nil) != (errDelta == nil) {
		t.Fatalf("%s: verdicts diverge:\nfull:  %v\ndelta: %v", label, errFull, errDelta)
	}
	if errFull == nil {
		if got, want := cmdLines(scDelta), cmdLines(scFull); got != want {
			t.Fatalf("%s: scripts diverge:\nfull:\n%s\ndelta:\n%s", label, want, got)
		}
	}
	if !metamodel.Equal(sFull.CurrentModel(), sDelta.CurrentModel()) {
		t.Fatalf("%s: committed models diverge; diff:\n%s", label,
			metamodel.Diff(sFull.CurrentModel(), sDelta.CurrentModel()))
	}
	if sFull.Seq() != sDelta.Seq() {
		t.Fatalf("%s: seq diverges: full %d, delta %d", label, sFull.Seq(), sDelta.Seq())
	}
}

func cmdLines(s *script.Script) string {
	if s == nil {
		return ""
	}
	out := ""
	for _, c := range s.Commands {
		out += c.String() + "\n"
	}
	return out
}

// TestDeltaModeMatchesFullMode walks both modes through a scripted session:
// growth, attribute edits, reference churn, invalid submissions (missing
// required attribute, dangling reference, containment conflict), removals.
func TestDeltaModeMatchesFullMode(t *testing.T) {
	sFull, full, sDelta, delta := buildPair(t)

	m := metamodel.NewModel("mini-cml")
	m.NewObject("s1", "Session")
	p := m.NewObject("alice", "Person")
	p.SetAttr("name", "Alice")
	m.Get("s1").AddRef("participants", "alice")
	submitBoth(t, "initial session", sFull, full, sDelta, delta, m)

	st := m.NewObject("st1", "Stream")
	st.SetAttr("media", "audio")
	m.Get("s1").AddRef("streams", "st1")
	submitBoth(t, "add stream", sFull, full, sDelta, delta, m)

	// Invalid: required attribute missing on a new object.
	bad := m.Clone()
	bad.NewObject("st2", "Stream")
	bad.Get("s1").AddRef("streams", "st2")
	submitBoth(t, "missing required attr", sFull, full, sDelta, delta, bad)

	// Invalid: dangling participant on an otherwise-unchanged session.
	bad = m.Clone()
	bad.Get("s1").AddRef("participants", "ghost")
	submitBoth(t, "dangling ref", sFull, full, sDelta, delta, bad)

	// Invalid: second session claims containment of the same stream.
	bad = m.Clone()
	bad.NewObject("s2", "Session").AddRef("streams", "st1")
	submitBoth(t, "containment conflict", sFull, full, sDelta, delta, bad)

	// Valid again after the rejections: the committed state must have
	// survived them untouched in both modes.
	m.Get("st1").SetAttr("media", "video")
	submitBoth(t, "retune stream", sFull, full, sDelta, delta, m)

	// Raw (non-canonical) attribute value: full mode normalises during
	// validation, delta mode during NormalizeChanges.
	m.Get("st1").SetAttr("bandwidth", 128) // int, canonical form is float64
	submitBoth(t, "raw attr value", sFull, full, sDelta, delta, m)

	// Removal with reference cleanup.
	m.Get("s1").RemoveRef("streams", "st1")
	_ = m.Delete("st1")
	submitBoth(t, "remove stream", sFull, full, sDelta, delta, m)

	// No-op resubmission.
	submitBoth(t, "no-op", sFull, full, sDelta, delta, m)

	if full.all() != delta.all() {
		t.Fatalf("cumulative command streams diverge:\nfull:\n%s\ndelta:\n%s", full.all(), delta.all())
	}
	if sFull.Seq() == 0 {
		t.Fatal("no submissions committed")
	}
}

// TestDeltaModeRandomSessions drives both modes through random model
// sequences, mixing valid and invalid submissions.
func TestDeltaModeRandomSessions(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sFull, full, sDelta, delta := buildPair(t)
		rng := rand.New(rand.NewSource(seed))
		m := metamodel.NewModel("mini-cml")
		for step := 0; step < 12; step++ {
			cand := m.Clone()
			mutateComm(rng, cand)
			submitBoth(t, fmt.Sprintf("seed %d step %d", seed, step), sFull, full, sDelta, delta, cand)
			m = sFull.CurrentModel() // follow whatever was committed
		}
		if full.all() != delta.all() {
			t.Fatalf("seed %d: cumulative command streams diverge", seed)
		}
	}
}

// mutateComm randomly mutates a mini-cml model, valid and invalid alike.
func mutateComm(rng *rand.Rand, m *metamodel.Model) {
	medias := []string{"audio", "video", "chat", "telepathy"} // last one invalid
	for n := 1 + rng.Intn(3); n > 0; n-- {
		switch rng.Intn(7) {
		case 0:
			id := fmt.Sprintf("s%d", rng.Intn(6))
			if m.Get(id) == nil {
				m.NewObject(id, "Session")
			}
		case 1:
			id := fmt.Sprintf("p%d", rng.Intn(6))
			if m.Get(id) == nil {
				o := m.NewObject(id, "Person")
				if rng.Intn(5) > 0 {
					o.SetAttr("name", "u"+id)
				} // else: missing required attr
			}
		case 2:
			sid := fmt.Sprintf("s%d", rng.Intn(6))
			stid := fmt.Sprintf("st%d", rng.Intn(8))
			if m.Get(sid) != nil && m.Get(stid) == nil {
				o := m.NewObject(stid, "Stream")
				o.SetAttr("media", medias[rng.Intn(len(medias))])
				m.Get(sid).AddRef("streams", stid)
			}
		case 3: // participant edge, sometimes dangling
			sid := fmt.Sprintf("s%d", rng.Intn(6))
			pid := fmt.Sprintf("p%d", rng.Intn(8))
			if m.Get(sid) != nil {
				m.Get(sid).AddRef("participants", pid)
			}
		case 4: // retune a stream
			stid := fmt.Sprintf("st%d", rng.Intn(8))
			if o := m.Get(stid); o != nil {
				o.SetAttr("bandwidth", float64(32*(1+rng.Intn(8))))
			}
		case 5: // delete an object, cleaning or leaking references
			ids := m.IDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			_ = m.Delete(id)
			if rng.Intn(2) == 0 {
				for _, o := range m.Objects() {
					for _, ref := range o.RefNames() {
						o.RemoveRef(ref, id)
					}
				}
			}
		case 6: // second containment owner
			ids := m.IDs()
			var sessions, streams []string
			for _, id := range ids {
				switch m.Get(id).Class {
				case "Session":
					sessions = append(sessions, id)
				case "Stream":
					streams = append(streams, id)
				}
			}
			if len(sessions) > 0 && len(streams) > 0 {
				m.Get(sessions[rng.Intn(len(sessions))]).AddRef("streams", streams[rng.Intn(len(streams))])
			}
		}
	}
}

// TestDeltaModeRestoreRebasesValidator: after RestoreState the validator
// must track the restored model, not the pre-restore one.
func TestDeltaModeRestoreRebasesValidator(t *testing.T) {
	sFull, full, sDelta, delta := buildPair(t)

	m := metamodel.NewModel("mini-cml")
	m.NewObject("s1", "Session")
	submitBoth(t, "seed", sFull, full, sDelta, delta, m)

	snap := metamodel.NewModel("mini-cml")
	snap.NewObject("s9", "Session")
	p := snap.NewObject("bob", "Person")
	p.SetAttr("name", "Bob")
	snap.Get("s9").AddRef("participants", "bob")
	if err := sFull.RestoreState(snap.Clone(), 5, sFull.State()); err != nil {
		t.Fatal(err)
	}
	if err := sDelta.RestoreState(snap.Clone(), 5, sDelta.State()); err != nil {
		t.Fatal(err)
	}

	// A submission relative to the restored snapshot must validate
	// incrementally against it.
	next := snap.Clone()
	next.Get("s9").RemoveRef("participants", "bob")
	_ = next.Delete("bob")
	submitBoth(t, "post-restore", sFull, full, sDelta, delta, next)

	// And an invalid one must be caught against the restored base.
	bad := sDelta.CurrentModel()
	bad.Get("s9").AddRef("participants", "bob") // bob is gone
	submitBoth(t, "post-restore dangling", sFull, full, sDelta, delta, bad)
}

// TestDeltaModeRestoreSharesCommittedModel: a delta-mode layer restored
// from another layer's committed model shares it — the delta validator is
// re-based over the shared model itself — and neither layer's later
// submissions modify it while it is being read elsewhere. Run under -race.
func TestDeltaModeRestoreSharesCommittedModel(t *testing.T) {
	sFull, _, sDelta, _ := buildPair(t)
	m := metamodel.NewModel("mini-cml")
	m.NewObject("s1", "Session")
	m.NewObject("alice", "Person").SetAttr("name", "Alice")
	m.Get("s1").AddRef("participants", "alice")
	if _, err := sFull.Submit(m); err != nil {
		t.Fatal(err)
	}
	shared := sFull.Committed()
	want, err := metamodel.MarshalModel(shared)
	if err != nil {
		t.Fatal(err)
	}
	if err := sDelta.RestoreState(shared, sFull.Seq(), sFull.State()); err != nil {
		t.Fatal(err)
	}
	if sDelta.Committed() != shared || sDelta.delta.Base() != shared {
		t.Fatal("the restored layer copied the committed model instead of sharing it")
	}

	var wg sync.WaitGroup
	for _, s := range []*Synthesis{sFull, sDelta} {
		wg.Add(1)
		go func(s *Synthesis) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				next := s.CurrentModel()
				next.Get("alice").SetAttr("name", fmt.Sprintf("Alice %d", i))
				next.NewObject(fmt.Sprintf("p%d", i), "Person").SetAttr("name", "P")
				if _, err := s.Submit(next); err != nil {
					t.Errorf("%s: submit %d: %v", s.Name(), i, err)
					return
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := metamodel.MarshalModel(shared); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got, err := metamodel.MarshalModel(shared); err != nil || string(got) != string(want) {
		t.Fatalf("submissions modified the shared model (err %v):\n%s\nwant:\n%s", err, got, want)
	}
}
