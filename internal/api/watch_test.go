package api

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/serve"
)

// sseFrame is one parsed Server-Sent Events frame of /watch.
type sseFrame struct {
	event string
	data  []byte
}

// openWatch opens the tenant's /watch stream and returns its frames on a
// channel that closes when the stream ends.
func (e *env) openWatch(tenant string) <-chan sseFrame {
	e.t.Helper()
	resp, err := e.ts.Client().Get(e.ts.URL + "/tenants/" + tenant + "/watch")
	if err != nil {
		e.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		e.t.Fatalf("watch %s: %d", tenant, resp.StatusCode)
	}
	e.t.Cleanup(func() { resp.Body.Close() })
	frames := make(chan sseFrame, watchBuffer) // as deep as the hub's own per-watcher queue
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, maxBody)
		var f sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = []byte(strings.TrimPrefix(line, "data: "))
			case line == "" && f.event != "":
				frames <- f
				f = sseFrame{}
			}
		}
	}()
	return frames
}

// nextFrame waits for the stream's next frame.
func nextFrame(t *testing.T, frames <-chan sseFrame) sseFrame {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatal("watch stream ended")
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no watch frame within 5s")
	}
	return sseFrame{}
}

// snapshotFrame decodes a snapshot frame into its sequence number and
// model.
func snapshotFrame(t *testing.T, f sseFrame) (uint64, *metamodel.Model) {
	t.Helper()
	if f.event != "snapshot" {
		t.Fatalf("first frame is %q, want snapshot", f.event)
	}
	var doc struct {
		Seq   uint64          `json:"seq"`
		Model json.RawMessage `json:"model"`
	}
	if err := json.Unmarshal(f.data, &doc); err != nil {
		t.Fatal(err)
	}
	m, err := metamodel.UnmarshalModel(doc.Model)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Seq, m
}

// changeKinds inverts metamodel.ChangeKind.String for the wire ops.
var changeKinds = func() map[string]metamodel.ChangeKind {
	out := map[string]metamodel.ChangeKind{}
	for k := metamodel.ChangeRemoveObject; k <= metamodel.ChangeRemoveRef; k++ {
		out[k.String()] = k
	}
	return out
}()

// deltaFrame decodes a delta frame into its sequence number and change
// list.
func deltaFrame(t *testing.T, f sseFrame) (uint64, metamodel.ChangeList) {
	t.Helper()
	if f.event != "delta" {
		t.Fatalf("frame is %q, want delta", f.event)
	}
	var doc struct {
		Seq     uint64      `json:"seq"`
		Changes []changeDoc `json:"changes"`
	}
	if err := json.Unmarshal(f.data, &doc); err != nil {
		t.Fatal(err)
	}
	cl := make(metamodel.ChangeList, len(doc.Changes))
	for i, c := range doc.Changes {
		kind, ok := changeKinds[c.Op]
		if !ok {
			t.Fatalf("delta %d: unknown op %q", doc.Seq, c.Op)
		}
		cl[i] = metamodel.Change{Kind: kind, ObjectID: c.Object, Class: c.Class,
			Feature: c.Feature, Old: c.Old, New: c.New, Target: c.Target}
	}
	return doc.Seq, cl
}

// TestWatchReplayEqualsServedModel: a watcher that applies the snapshot
// frame and then every delta frame in order holds exactly the model GET
// serves. The writes cover PUT, PATCH and DELETE — one DELETE stripping
// references to the deleted object — plus a containment cascade (a
// stream and its attachments removed in one commit), an eviction in the
// middle, and a delete and re-create of the tenant, so the deltas come
// both from the commits' own change lists and from the hub's re-attach
// diffs.
func TestWatchReplayEqualsServedModel(t *testing.T) {
	e := newEnv(t, serve.Config{})
	e.createTenant("w", "cml")
	frames := e.openWatch("w")
	seq, replay := snapshotFrame(t, nextFrame(t, frames))
	// converge applies the watcher's deltas up to the sequence number a
	// fresh watcher's snapshot names, then requires the replayed model to
	// equal the served one.
	converge := func() {
		t.Helper()
		code, body := e.do("GET", "/tenants/w/models/cml", nil)
		if code != http.StatusOK {
			t.Fatalf("GET model: %d %s", code, body)
		}
		served, err := metamodel.UnmarshalModel(body)
		if err != nil {
			t.Fatal(err)
		}
		last, _ := snapshotFrame(t, nextFrame(t, e.openWatch("w")))
		for seq < last {
			next, changes := deltaFrame(t, nextFrame(t, frames))
			if next != seq+1 {
				t.Fatalf("delta seq %d follows %d", next, seq)
			}
			if err := metamodel.Apply(replay, changes); err != nil {
				t.Fatalf("delta %d does not apply to the replayed model: %v", next, err)
			}
			seq = next
		}
		// Both sides come through JSON, so their values compare as decoded.
		if !metamodel.Equal(replay, served) {
			t.Fatalf("replayed model differs from the served one:\n%s", metamodel.Diff(served, replay))
		}
	}

	obj := "/tenants/w/models/cml/objects/"
	write := func(method, id string, doc any, want int) {
		t.Helper()
		if code, body := e.do(method, obj+id, doc); code != want {
			t.Fatalf("%s %s: %d %s", method, id, code, body)
		}
	}
	people := func() {
		write("PUT", "alice", objectDoc{Class: "Person", Attrs: map[string]any{"name": "Alice"}}, http.StatusCreated)
		write("PUT", "bob", objectDoc{Class: "Person", Attrs: map[string]any{"name": "Bob"}}, http.StatusCreated)
	}
	people()
	write("PUT", "s1", objectDoc{Class: "Session", Attrs: map[string]any{"topic": "standup"},
		Refs: map[string][]string{"participants": {"alice", "bob"}}}, http.StatusCreated)
	for _, st := range [][2]string{{"a1", "audio"}, {"v1", "video"}} {
		write("PUT", st[0], objectDoc{Class: "Stream",
			Attrs: map[string]any{"media": st[1], "session": "s1"}}, http.StatusCreated)
	}
	for _, id := range []string{"f1", "f2"} {
		write("PUT", id, objectDoc{Class: "Attachment",
			Attrs: map[string]any{"name": id, "stream": "v1", "session": "s1"}}, http.StatusCreated)
	}
	write("PATCH", "v1", objectDoc{Refs: map[string][]string{"attachments": {"f1", "f2"}}}, http.StatusOK)
	write("PATCH", "s1", objectDoc{Refs: map[string][]string{"streams": {"a1", "v1"}}}, http.StatusOK)
	write("PATCH", "a1", objectDoc{Attrs: map[string]any{"bandwidth": 128.5}}, http.StatusOK)
	write("DELETE", "bob", nil, http.StatusNoContent) // strips s1.participants → bob
	converge()

	// Containment cascade: the video stream and both its attachments go
	// in one commit, submitted beside the API like any other client.
	m, _, err := e.srv.Model("w")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"v1", "f1", "f2"} {
		if err := m.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	m.Get("s1").RemoveRef("streams", "v1")
	if _, err := e.srv.SubmitModel("w", m); err != nil {
		t.Fatal(err)
	}
	converge()

	// Rehydration re-attaches the tenant. (A rehydrated cml tenant's
	// simulated comm service starts empty, so only Person writes, which
	// carry no synthesis semantics, can follow.)
	if err := e.srv.Evict("w"); err != nil {
		t.Fatal(err)
	}
	write("PUT", "carol", objectDoc{Class: "Person", Attrs: map[string]any{"name": "Carol"}}, http.StatusCreated)
	write("PATCH", "alice", objectDoc{Attrs: map[string]any{"role": "chair"}}, http.StatusOK)
	write("DELETE", "carol", nil, http.StatusNoContent)
	converge()

	// Re-creating a deleted tenant re-attaches it with an empty model.
	if code, body := e.do("DELETE", "/tenants/w", nil); code != http.StatusNoContent {
		t.Fatalf("delete tenant: %d %s", code, body)
	}
	e.createTenant("w", "cml")
	people()
	converge()
}

// TestWatchReattachSendsNoFrame: rehydrating a parked tenant re-attaches
// its stream to the model the watcher already holds, so the watcher's next
// frame after any number of parks is the delta of the next write.
func TestWatchReattachSendsNoFrame(t *testing.T) {
	e := newEnv(t, serve.Config{})
	e.createTenant("w", "cml")
	obj := "/tenants/w/models/cml/objects/"
	if code, body := e.do("PUT", obj+"alice", objectDoc{Class: "Person", Attrs: map[string]any{"name": "Alice"}}); code != http.StatusCreated {
		t.Fatalf("PUT alice: %d %s", code, body)
	}
	frames := e.openWatch("w")
	seq, _ := snapshotFrame(t, nextFrame(t, frames))
	for i := 0; i < 3; i++ {
		if err := e.srv.Evict("w"); err != nil {
			t.Fatal(err)
		}
		if code, body := e.do("GET", "/tenants/w/models/cml", nil); code != http.StatusOK {
			t.Fatalf("GET model: %d %s", code, body)
		}
	}
	if code, body := e.do("PATCH", obj+"alice", objectDoc{Attrs: map[string]any{"role": "chair"}}); code != http.StatusOK {
		t.Fatalf("PATCH alice: %d %s", code, body)
	}
	next, changes := deltaFrame(t, nextFrame(t, frames))
	if next != seq+1 || len(changes) != 1 || changes[0].Feature != "role" {
		t.Fatalf("first frame after the re-attaches is delta %d %v, want delta %d setting alice's role", next, changes, seq+1)
	}
}
