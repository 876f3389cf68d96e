package cml

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/resources/comm"
)

// TestModelServiceConsistencyProperty is the models@runtime invariant: after
// any sequence of valid CML model edits, the communication service's state
// mirrors the runtime model — every modelled session exists with exactly
// the modelled participants and streams (media and bandwidth included),
// and nothing else.
func TestModelServiceConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vm, err := New(domains.Config{})
		if err != nil {
			t.Log(err)
			return false
		}
		people := []string{"p1", "p2", "p3"}
		media := []string{"audio", "video", "chat"}

		for round := 0; round < 6; round++ {
			edit := vm.Platform.UI.EditDraft()
			for _, p := range people {
				if edit.Object(p) == nil {
					edit.MustAdd(p, "Person").SetAttr("name", p)
				}
			}
			switch op := r.Intn(5); op {
			case 0: // add a session
				id := fmt.Sprintf("s%d", r.Intn(3))
				if edit.Object(id) == nil {
					edit.MustAdd(id, "Session")
				}
			case 1: // add a stream to a random session
				sessions := edit.Model().ObjectsOf("Session")
				if len(sessions) > 0 {
					sess := sessions[r.Intn(len(sessions))]
					id := fmt.Sprintf("st%d", r.Intn(4))
					if edit.Object(id) == nil {
						edit.MustAdd(id, "Stream").
							SetAttr("media", media[r.Intn(3)]).
							SetAttr("bandwidth", float64(8*(1+r.Intn(8)))).
							SetAttr("session", sess.ID)
						sess.AddRef("streams", id)
					}
				}
			case 2: // toggle a participant on a random session
				sessions := edit.Model().ObjectsOf("Session")
				if len(sessions) > 0 {
					sess := sessions[r.Intn(len(sessions))]
					p := people[r.Intn(len(people))]
					has := false
					for _, ref := range sess.Refs("participants") {
						if ref == p {
							has = true
						}
					}
					if has {
						sess.RemoveRef("participants", p)
					} else {
						sess.AddRef("participants", p)
					}
				}
			case 3: // reconfigure a random stream
				streams := edit.Model().ObjectsOf("Stream")
				if len(streams) > 0 {
					st := streams[r.Intn(len(streams))]
					st.SetAttr("media", media[r.Intn(3)])
				}
			case 4: // remove a random session (and its streams)
				sessions := edit.Model().ObjectsOf("Session")
				if len(sessions) > 0 {
					sess := sessions[r.Intn(len(sessions))]
					for _, stID := range sess.Refs("streams") {
						if err := edit.Remove(stID); err != nil {
							t.Logf("seed %d: remove stream: %v", seed, err)
							return false
						}
					}
					if err := edit.Remove(sess.ID); err != nil {
						t.Logf("seed %d: remove session: %v", seed, err)
						return false
					}
				}
			}
			if _, err := edit.Submit(); err != nil {
				t.Logf("seed %d round %d: submit: %v", seed, round, err)
				return false
			}
			if !consistent(t, vm, seed, round) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// consistent checks service state against the runtime model.
func consistent(t *testing.T, vm *CVM, seed int64, round int) bool {
	model := vm.Platform.UI.RuntimeModel()
	sessions := model.ObjectsOf("Session")
	if got := len(vm.Service.SessionIDs()); got != len(sessions) {
		t.Logf("seed %d round %d: %d service sessions vs %d modelled",
			seed, round, got, len(sessions))
		return false
	}
	for _, sess := range sessions {
		svc := vm.Service.Session(sess.ID)
		if svc == nil {
			t.Logf("seed %d round %d: session %s missing", seed, round, sess.ID)
			return false
		}
		if len(svc.Participants()) != len(sess.Refs("participants")) {
			t.Logf("seed %d round %d: session %s participants %v vs %v",
				seed, round, sess.ID, svc.Participants(), sess.Refs("participants"))
			return false
		}
		if len(svc.Streams()) != len(sess.Refs("streams")) {
			t.Logf("seed %d round %d: session %s streams %v vs %v",
				seed, round, sess.ID, svc.Streams(), sess.Refs("streams"))
			return false
		}
		for _, stID := range sess.Refs("streams") {
			st := svc.Stream(stID)
			mo := model.Get(stID)
			if st == nil || mo == nil {
				t.Logf("seed %d round %d: stream %s missing", seed, round, stID)
				return false
			}
			if string(st.Media) != mo.StringAttr("media") ||
				st.Bandwidth != mo.FloatAttr("bandwidth") {
				t.Logf("seed %d round %d: stream %s %s/%v vs %s/%v",
					seed, round, stID, st.Media, st.Bandwidth,
					mo.StringAttr("media"), mo.FloatAttr("bandwidth"))
				return false
			}
		}
	}
	_ = comm.Audio // keep the import for documentation symmetry
	return true
}
