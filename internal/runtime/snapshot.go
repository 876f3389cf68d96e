// Checkpoint/restore of models@runtime state. A snapshot is the paper's
// "model at runtime" made durable: the middleware model the platform was
// generated from, the committed application model and LTS position of the
// Synthesis layer, the Broker's resource state and policy context, the
// Controller's context and stats, the open circuit breakers and the parked
// dead letters — everything needed to regenerate an equivalent platform
// after a crash. Restore rebuilds the platform through the same factory
// path as Build (the snapshot's models are re-validated, not trusted) and
// then reinstates the serialised state on top.
//
// The format is versioned JSON; Restore rejects snapshots whose version it
// does not understand. JSON normalises all numbers to float64, which the
// expression engine and policy contexts already accept.

package runtime

import (
	"encoding/json"
	"fmt"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/controller"
	"github.com/mddsm/mddsm/internal/metamodel"
)

// SnapshotVersion is the snapshot format version written by Checkpoint and
// required by Restore.
const SnapshotVersion = 1

// snapshotDoc is the on-disk snapshot layout.
type snapshotDoc struct {
	Version    int                  `json:"version"`
	Name       string               `json:"name"`
	Domain     string               `json:"domain"`
	Middleware json.RawMessage      `json:"middleware"`
	Synthesis  *synthSnapshot       `json:"synthesis,omitempty"`
	Controller *controllerSnapshot  `json:"controller,omitempty"`
	Broker     *brokerSnapshot      `json:"broker,omitempty"`
	DeadLetter []deadLetterSnapshot `json:"deadLetters,omitempty"`
}

type synthSnapshot struct {
	// AppModel is the committed runtime application model.
	AppModel json.RawMessage `json:"appModel"`
	// Seq is the submission sequence number.
	Seq int `json:"seq"`
	// LTSState is the synthesis LTS instance's position.
	LTSState string `json:"ltsState"`
}

type controllerSnapshot struct {
	Context map[string]any   `json:"context,omitempty"`
	Stats   controller.Stats `json:"stats"`
}

type brokerSnapshot struct {
	State   map[string]any `json:"state,omitempty"`
	Context map[string]any `json:"context,omitempty"`
	// OpenBreakers lists operations whose circuit breakers were not closed
	// at checkpoint time; Restore re-trips them so a restored platform does
	// not naively hammer a resource that was failing when it went down.
	OpenBreakers []string `json:"openBreakers,omitempty"`
}

type deadLetterSnapshot struct {
	Event    string         `json:"event"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Reason   string         `json:"reason"`
	Attempts int            `json:"attempts"`
}

// Checkpoint serialises the platform's running state to a versioned JSON
// snapshot. It is safe on a running platform (each layer is snapshotted
// under its own lock), but a checkpoint taken mid-flight observes whatever
// delivery boundary it lands on; quiesce first for an exact cut. Context
// and state values must be JSON-serialisable.
func (p *Platform) Checkpoint() ([]byte, error) {
	mw, err := metamodel.MarshalModel(p.model)
	if err != nil {
		return nil, fmt.Errorf("runtime: checkpoint %s: middleware model: %w", p.Name, err)
	}
	doc := snapshotDoc{
		Version:    SnapshotVersion,
		Name:       p.Name,
		Domain:     p.Domain,
		Middleware: mw,
		Broker: &brokerSnapshot{
			State:        p.Broker.State().Snapshot(),
			Context:      p.Broker.Context().Snapshot(),
			OpenBreakers: p.Broker.OpenBreakers(),
		},
	}
	if p.Controller != nil {
		doc.Controller = &controllerSnapshot{
			Context: p.Controller.Context().Snapshot(),
			Stats:   p.Controller.Stats(),
		}
	}
	if p.Synthesis != nil {
		app, err := metamodel.MarshalModel(p.Synthesis.Committed())
		if err != nil {
			return nil, fmt.Errorf("runtime: checkpoint %s: application model: %w", p.Name, err)
		}
		doc.Synthesis = &synthSnapshot{
			AppModel: app,
			Seq:      p.Synthesis.Seq(),
			LTSState: p.Synthesis.State(),
		}
	}
	for _, dl := range p.dlq.snapshot() {
		doc.DeadLetter = append(doc.DeadLetter, deadLetterSnapshot{
			Event:    dl.Event.Name,
			Attrs:    dl.Event.Attrs,
			Reason:   dl.Reason,
			Attempts: dl.Attempts,
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runtime: checkpoint %s: %w", p.Name, err)
	}
	return out, nil
}

// Quiesce stops the platform (draining the pump with exact accounting)
// and takes a checkpoint of the settled state: the exact cut that
// eviction, replication and live migration transfer. On checkpoint failure
// the platform is restarted so the caller is never left with a silently
// stopped tenant. After a successful Quiesce the platform stays stopped;
// restart it with Start or discard it.
func (p *Platform) Quiesce() ([]byte, error) {
	p.Stop()
	snap, err := p.Checkpoint()
	if err != nil {
		p.Start()
		return nil, fmt.Errorf("runtime: quiesce %s: %w", p.Name, err)
	}
	return snap, nil
}

// SnapshotsEquivalent reports whether two Checkpoint snapshots describe
// the same models@runtime state. The Controller's Generated and CacheHits
// counters are excluded from the comparison: they are live generator
// statistics that RestoreStats documents as starting cold after a restore,
// so they legitimately differ across a checkpoint/restore roundtrip even
// when every piece of restored state is identical.
func SnapshotsEquivalent(a, b []byte) (bool, error) {
	canon := func(data []byte) ([]byte, error) {
		var doc snapshotDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("runtime: snapshot compare: %w", err)
		}
		if doc.Controller != nil {
			doc.Controller.Stats.Generated = 0
			doc.Controller.Stats.CacheHits = 0
		}
		return json.Marshal(doc)
	}
	ca, err := canon(a)
	if err != nil {
		return false, err
	}
	cb, err := canon(b)
	if err != nil {
		return false, err
	}
	return string(ca) == string(cb), nil
}

// Restore rebuilds a platform from a Checkpoint snapshot: the snapshot's
// middleware model is re-validated and run through the same factory as
// Build (bound to the given DSK deps), then the checkpointed layer state is
// reinstated — committed application model, LTS position, contexts,
// resource state, open breakers and dead letters. The restored platform is
// not started; call Start (and Monitor) as after Build.
func Restore(data []byte, deps Deps, opts ...Option) (*Platform, error) {
	var doc snapshotDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("runtime: restore: malformed snapshot: %w", err)
	}
	if doc.Version != SnapshotVersion {
		return nil, fmt.Errorf("runtime: restore: snapshot version %d, want %d", doc.Version, SnapshotVersion)
	}
	if len(doc.Middleware) == 0 {
		return nil, fmt.Errorf("runtime: restore: snapshot has no middleware model")
	}
	mw, err := metamodel.UnmarshalModel(doc.Middleware)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore: middleware model: %w", err)
	}
	p, err := Build(mw, deps, opts...)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore: %w", err)
	}
	if doc.Broker != nil {
		for k, v := range doc.Broker.State {
			p.Broker.State().Set(k, v)
		}
		for k, v := range doc.Broker.Context {
			p.Broker.Context().Set(k, v)
		}
		for _, op := range doc.Broker.OpenBreakers {
			p.Broker.TripBreaker(op)
		}
	}
	if doc.Controller != nil {
		if p.Controller == nil {
			return nil, fmt.Errorf("runtime: restore: snapshot has Controller state but the middleware model declares no ControllerLayer")
		}
		for k, v := range doc.Controller.Context {
			p.Controller.Context().Set(k, v)
		}
		p.Controller.RestoreStats(doc.Controller.Stats)
	}
	if doc.Synthesis != nil {
		if p.Synthesis == nil {
			return nil, fmt.Errorf("runtime: restore: snapshot has Synthesis state but the middleware model declares no SynthesisLayer")
		}
		app, err := metamodel.UnmarshalModel(doc.Synthesis.AppModel)
		if err != nil {
			return nil, fmt.Errorf("runtime: restore: application model: %w", err)
		}
		if err := p.Synthesis.RestoreState(app, doc.Synthesis.Seq, doc.Synthesis.LTSState); err != nil {
			return nil, fmt.Errorf("runtime: restore: %w", err)
		}
	}
	for _, dl := range doc.DeadLetter {
		if p.dlq.add(DeadLetter{
			Event:    broker.Event{Name: dl.Event, Attrs: dl.Attrs},
			Reason:   dl.Reason,
			Attempts: dl.Attempts,
		}) {
			continue
		}
		// The restored platform's DLQ is smaller than the checkpointed
		// backlog: the overflow is a terminal counted loss, like any
		// delivery failure with no DLQ room.
		p.mDeliverFail.Inc()
	}
	p.gDLQDepth.Set(int64(p.dlq.size()))
	return p, nil
}
