// Checkpoint/restore of models@runtime state. A snapshot is the paper's
// "model at runtime" made durable: the middleware model the platform was
// generated from, the committed application model and LTS position of the
// Synthesis layer, the Broker's resource state and policy context, the
// Controller's context and stats, the open circuit breakers and the parked
// dead letters — everything needed to regenerate an equivalent platform
// after a crash. Capture takes that state as a Snapshot value; Checkpoint
// is Capture plus Encode and Restore is DecodeSnapshot plus
// RestoreSnapshot, the one reinstatement path. It rebuilds the platform
// through the same factory path as Build (the snapshot's models are
// re-validated, not trusted, but shared rather than copied) and then
// reinstates the captured state on top.
//
// The format is versioned JSON; DecodeSnapshot rejects snapshots whose
// version it does not understand. JSON normalises all numbers to float64,
// which the expression engine and policy contexts already accept; a
// Snapshot restored in process keeps its values' Go types.

package runtime

import (
	"encoding/json"
	"fmt"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/controller"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
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

// Snapshot is a decoded checkpoint: exactly the state Checkpoint
// serialises, held as values. Its middleware and application models are
// the platform's own validated and committed models — immutable and
// shared, never copied, and shared again by every platform restored from
// the Snapshot — and its maps are copies, so a Snapshot outlives the
// platform it was captured from and may be restored any number of times.
// Hosts that park a platform in process (serve's eviction) keep the
// Snapshot and encode it only where bytes leave the process.
type Snapshot struct {
	name, domain string
	middleware   *metamodel.Model
	synthesis    *synthState
	controller   *controllerSnapshot
	broker       *brokerSnapshot
	deadLetters  []deadLetterSnapshot
}

// synthState is the Synthesis layer's part of a Snapshot.
type synthState struct {
	app      *metamodel.Model
	seq      int
	ltsState string
}

// Capture takes the platform's running state as a Snapshot. Like
// Checkpoint it is safe on a running platform but observes whatever
// delivery boundary it lands on; Quiesce captures an exact cut.
func (p *Platform) Capture() *Snapshot {
	s := &Snapshot{
		name:       p.Name,
		domain:     p.Domain,
		middleware: p.model,
		broker: &brokerSnapshot{
			State:        p.Broker.State().Snapshot(),
			Context:      p.Broker.Context().Snapshot(),
			OpenBreakers: p.Broker.OpenBreakers(),
		},
	}
	if p.Controller != nil {
		s.controller = &controllerSnapshot{
			Context: p.Controller.Context().Snapshot(),
			Stats:   p.Controller.Stats(),
		}
	}
	if p.Synthesis != nil {
		s.synthesis = &synthState{
			app:      p.Synthesis.Committed(),
			seq:      p.Synthesis.Seq(),
			ltsState: p.Synthesis.State(),
		}
	}
	for _, dl := range p.dlq.snapshot() {
		s.deadLetters = append(s.deadLetters, deadLetterSnapshot{
			Event:    dl.Event.Name,
			Attrs:    dl.Event.Copy().Attrs,
			Reason:   dl.Reason,
			Attempts: dl.Attempts,
		})
	}
	return s
}

// Encode serialises the snapshot to the versioned JSON format. Context and
// state values must be JSON-serialisable.
func (s *Snapshot) Encode() ([]byte, error) {
	mw, err := metamodel.MarshalModel(s.middleware)
	if err != nil {
		return nil, fmt.Errorf("runtime: checkpoint %s: middleware model: %w", s.name, err)
	}
	doc := snapshotDoc{
		Version:    SnapshotVersion,
		Name:       s.name,
		Domain:     s.domain,
		Middleware: mw,
		Controller: s.controller,
		Broker:     s.broker,
		DeadLetter: s.deadLetters,
	}
	if s.synthesis != nil {
		app, err := metamodel.MarshalModel(s.synthesis.app)
		if err != nil {
			return nil, fmt.Errorf("runtime: checkpoint %s: application model: %w", s.name, err)
		}
		doc.Synthesis = &synthSnapshot{
			AppModel: app,
			Seq:      s.synthesis.seq,
			LTSState: s.synthesis.ltsState,
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runtime: checkpoint %s: %w", s.name, err)
	}
	return out, nil
}

// DecodeSnapshot parses a Checkpoint snapshot, refusing malformed JSON, an
// unknown version, a missing middleware model and models that do not
// parse. Conformance is checked when the snapshot is restored.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
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
	s := &Snapshot{
		name:        doc.Name,
		domain:      doc.Domain,
		middleware:  mw,
		controller:  doc.Controller,
		broker:      doc.Broker,
		deadLetters: doc.DeadLetter,
	}
	if doc.Synthesis != nil {
		app, err := metamodel.UnmarshalModel(doc.Synthesis.AppModel)
		if err != nil {
			return nil, fmt.Errorf("runtime: restore: application model: %w", err)
		}
		s.synthesis = &synthState{app: app, seq: doc.Synthesis.Seq, ltsState: doc.Synthesis.LTSState}
	}
	return s, nil
}

// Checkpoint serialises the platform's running state to a versioned JSON
// snapshot: Capture, then Encode. It is safe on a running platform (each
// layer is snapshotted under its own lock), but a checkpoint taken
// mid-flight observes whatever delivery boundary it lands on; quiesce
// first for an exact cut.
func (p *Platform) Checkpoint() ([]byte, error) {
	return p.Capture().Encode()
}

// Quiesce stops the platform (draining the pump with exact accounting)
// and captures the settled state: the exact cut that eviction,
// replication and live migration transfer. The platform stays stopped;
// restart it with Start or discard it.
func (p *Platform) Quiesce() *Snapshot {
	p.Stop()
	return p.Capture()
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

// Restore rebuilds a platform from Checkpoint bytes: DecodeSnapshot,
// then RestoreSnapshot.
func Restore(data []byte, deps Deps, cfg Config) (*Platform, error) {
	s, err := DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	return RestoreSnapshot(s, deps, cfg)
}

// RestoreSnapshot rebuilds a platform from a Snapshot: the snapshot's
// middleware model is re-validated and run through the same factory as
// Build (bound to the given DSK deps), then the captured layer state is
// reinstated — committed application model (re-validated too), LTS
// position, contexts, resource state, open breakers and dead letters.
// Both models are checked in place with metamodel's Conform, one walk
// each, and never modified: a model already in validated form — as a
// captured snapshot's are — is shared by the restored platform instead of
// copied, and only a model that validation would change (a decoded one
// whose numbers came back as JSON floats) is copied. The restored
// platform is not started; call Start (and Monitor) as after Build.
func RestoreSnapshot(s *Snapshot, deps Deps, cfg Config) (*Platform, error) {
	mw, err := s.middleware.Conform(mwmeta.MM())
	if err != nil {
		return nil, fmt.Errorf("runtime: restore: middleware model does not conform: %w", err)
	}
	p, err := build(mw, deps, cfg)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore: %w", err)
	}
	if b := s.broker; b != nil {
		for k, v := range b.State {
			p.Broker.State().Set(k, v)
		}
		for k, v := range b.Context {
			p.Broker.Context().Set(k, v)
		}
		for _, op := range b.OpenBreakers {
			p.Broker.TripBreaker(op)
		}
	}
	if c := s.controller; c != nil {
		if p.Controller == nil {
			return nil, fmt.Errorf("runtime: restore: snapshot has Controller state but the middleware model declares no ControllerLayer")
		}
		for k, v := range c.Context {
			p.Controller.Context().Set(k, v)
		}
		p.Controller.RestoreStats(c.Stats)
	}
	if syn := s.synthesis; syn != nil {
		if p.Synthesis == nil {
			return nil, fmt.Errorf("runtime: restore: snapshot has Synthesis state but the middleware model declares no SynthesisLayer")
		}
		if err := p.Synthesis.RestoreState(syn.app, syn.seq, syn.ltsState); err != nil {
			return nil, fmt.Errorf("runtime: restore: %w", err)
		}
	}
	for _, dl := range s.deadLetters {
		if p.dlq.add(DeadLetter{
			Event:    broker.Event{Name: dl.Event, Attrs: dl.Attrs}.Copy(),
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
