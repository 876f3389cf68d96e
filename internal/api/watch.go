package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
)

// watchBuffer is each SSE subscriber's delta queue. A consumer that
// falls this far behind is disconnected (counted as lagged) rather than
// allowed to stall the committing goroutine.
const watchBuffer = 64

type sseMsg struct {
	event string
	seq   uint64
	data  []byte
}

type watcher struct {
	ch chan sseMsg
}

// stream is one tenant's delta feed: the last committed model (the
// snapshot new subscribers are primed with, and the base of a re-attach
// diff) plus the live subscribers. The stream outlives evict/rehydrate
// churn — parking a tenant pauses publishes, it does not tear down
// watchers.
type stream struct {
	seq  uint64
	last *metamodel.Model
	subs map[*watcher]struct{}
}

// hub fans committed change lists out to SSE watchers as JSON. It is the
// serve.ModelObserver of the API's tenant host.
type hub struct {
	mu      sync.Mutex
	closed  bool
	streams map[string]*stream
	count   int

	delivered, lagged *obs.Counter
	watchers          *obs.Gauge
}

func newHub(met *obs.Metrics) *hub {
	return &hub{
		streams:   make(map[string]*stream),
		delivered: met.Counter(obs.MAPIWatchDelivered),
		lagged:    met.Counter(obs.MAPIWatchLagged),
		watchers:  met.Gauge(obs.MAPIWatchers),
	}
}

func (h *hub) stream(tenant string) *stream {
	st, ok := h.streams[tenant]
	if !ok {
		st = &stream{subs: make(map[*watcher]struct{})}
		h.streams[tenant] = st
	}
	return st
}

type changeDoc struct {
	Op      string `json:"op"`
	Object  string `json:"object"`
	Class   string `json:"class,omitempty"`
	Feature string `json:"feature,omitempty"`
	Old     any    `json:"old,omitempty"`
	New     any    `json:"new,omitempty"`
	Target  string `json:"target,omitempty"`
}

func changeDocs(cl metamodel.ChangeList) []changeDoc {
	docs := make([]changeDoc, len(cl))
	for i, c := range cl {
		docs[i] = changeDoc{
			Op: c.Kind.String(), Object: c.ObjectID, Class: c.Class,
			Feature: c.Feature, Old: c.Old, New: c.New, Target: c.Target,
		}
	}
	return docs
}

// Commit broadcasts the change list a tenant's Synthesis layer committed,
// as computed there: the hub does not diff commits itself.
func (h *hub) Commit(tenant string, m *metamodel.Model, changes metamodel.ChangeList) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.advanceLocked(h.stream(tenant), m, changes)
}

// Attach re-bases a tenant's stream on the model of the platform now
// serving it. The platform's commits continue from m, so watchers are sent
// the difference between the last model they saw and m first — empty
// unless the tenant's state moved while it was away (re-created after a
// delete, or adopted back after changing on another node). A stream seen
// for the first time has no watchers to converge yet and just takes m.
func (h *hub) Attach(tenant string, m *metamodel.Model) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	st := h.stream(tenant)
	if st.last == nil {
		st.last = m
		return
	}
	h.advanceLocked(st, m, metamodel.Diff(st.last, m))
}

// advanceLocked moves a stream to model m, broadcasting changes (the
// difference from the stream's last model) as one delta frame when it is
// non-empty. h.mu must be held.
func (h *hub) advanceLocked(st *stream, m *metamodel.Model, changes metamodel.ChangeList) {
	st.last = m
	if changes.Empty() {
		return
	}
	st.seq++
	if len(st.subs) == 0 {
		return
	}
	data, err := json.Marshal(map[string]any{"seq": st.seq, "changes": changeDocs(changes)})
	if err != nil {
		return
	}
	msg := sseMsg{event: "delta", seq: st.seq, data: data}
	for w := range st.subs {
		select {
		case w.ch <- msg:
			h.delivered.Inc()
		default:
			delete(st.subs, w)
			close(w.ch)
			h.count--
			h.watchers.Set(int64(h.count))
			h.lagged.Inc()
		}
	}
}

// subscribe registers a watcher and returns the snapshot frame priming
// it: the full current model plus the sequence number deltas continue
// from. cur seeds the stream's model when the hub has not yet seen the
// tenant.
func (h *hub) subscribe(tenant string, cur *metamodel.Model) (*watcher, sseMsg, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, sseMsg{}, fmt.Errorf("api: server closed")
	}
	st := h.stream(tenant)
	if st.last == nil {
		st.last = cur
	}
	raw, err := metamodel.MarshalModel(st.last)
	if err != nil {
		return nil, sseMsg{}, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return nil, sseMsg{}, err
	}
	data, err := json.Marshal(map[string]any{"seq": st.seq, "model": json.RawMessage(compact.Bytes())})
	if err != nil {
		return nil, sseMsg{}, err
	}
	w := &watcher{ch: make(chan sseMsg, watchBuffer)}
	st.subs[w] = struct{}{}
	h.count++
	h.watchers.Set(int64(h.count))
	return w, sseMsg{event: "snapshot", seq: st.seq, data: data}, nil
}

func (h *hub) unsubscribe(tenant string, w *watcher) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.streams[tenant]
	if !ok {
		return
	}
	if _, live := st.subs[w]; live {
		delete(st.subs, w)
		h.count--
		h.watchers.Set(int64(h.count))
	}
}

func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, st := range h.streams {
		for w := range st.subs {
			close(w.ch)
			delete(st.subs, w)
		}
	}
	h.count = 0
	h.watchers.Set(0)
}

func writeSSE(w io.Writer, msg sseMsg) error {
	_, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", msg.event, msg.seq, msg.data)
	return err
}

// handleWatch streams the tenant's model as Server-Sent Events: one
// "snapshot" event with the full document, then one "delta" event per
// committed change list, each carrying the validator-approved model
// difference as JSON. The stream ends when the client disconnects, the
// server closes, or the watcher lags past its buffer.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request, tenant string) {
	cur, _, err := s.serve.Model(tenant)
	if err != nil {
		serveProblem(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeProblem(w, http.StatusInternalServerError, "streaming unsupported",
			"response writer does not support flushing", nil)
		return
	}
	wt, snap, err := s.hub.subscribe(tenant, cur)
	if err != nil {
		writeProblem(w, http.StatusServiceUnavailable, "watch unavailable", err.Error(), nil)
		return
	}
	defer s.hub.unsubscribe(tenant, wt)
	hd := w.Header()
	hd.Set("Content-Type", "text/event-stream")
	hd.Set("Cache-Control", "no-cache")
	hd.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if writeSSE(w, snap) != nil {
		return
	}
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case msg, open := <-wt.ch:
			if !open {
				fmt.Fprint(w, ": lagged, stream closed\n\n")
				fl.Flush()
				return
			}
			if writeSSE(w, msg) != nil {
				return
			}
			fl.Flush()
		}
	}
}
