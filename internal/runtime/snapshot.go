// Checkpoint/restore of models@runtime state. A snapshot is the paper's
// "model at runtime" made durable: the middleware model the platform was
// generated from, the committed application model and LTS position of the
// Synthesis layer, the Broker's resource state and policy context, the
// Controller's context and stats, the open circuit breakers and the parked
// dead letters — everything needed to regenerate an equivalent platform
// after a crash. Capture takes that state as a Snapshot value; Checkpoint
// is Capture plus Encode and Restore is DecodeSnapshot plus
// RestoreSnapshot, the one reinstatement path.
//
// A Snapshot holds only checked models. Captured, it shares the
// platform's compiled plan and committed application model, both checked
// when they were built or committed. Decoded, its models are checked
// where the bytes enter the process: DecodeSnapshot conforms the
// middleware model to the middleware metamodel and compiles it, and
// conforms the application model to the DSML. RestoreSnapshot then
// instantiates the plan through the same factory path as Build, and
// reinstates the captured state on top, walking and parsing nothing.
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
	"github.com/mddsm/mddsm/internal/obs"
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
// serialises, held as values. Its plan and application model are checked
// — the platform's own compiled plan and committed model, or a decoded
// snapshot's, checked by DecodeSnapshot — immutable and shared, never
// copied, and shared again by every platform restored from the Snapshot.
// Its maps are copies, so a Snapshot outlives the platform it was
// captured from and may be restored any number of times. Hosts that park
// a platform in process (serve's eviction) keep the Snapshot and encode
// it only where bytes leave the process.
type Snapshot struct {
	name, domain string
	plan         *Plan
	synthesis    *synthState
	controller   *controllerSnapshot
	broker       *brokerSnapshot
	deadLetters  []deadLetterSnapshot
}

// synthState is the Synthesis layer's part of a Snapshot. app conforms to
// the DSML of the platform it was captured from, or to the one it was
// decoded against.
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
		name:   p.Name,
		domain: p.Domain,
		plan:   p.plan,
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
	mw, err := metamodel.MarshalModel(s.plan.model)
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

// DecodeSnapshot parses a Checkpoint snapshot and checks its models,
// refusing malformed JSON, an unknown version, a missing middleware model,
// models that do not parse or do not conform, and layer state for a layer
// the middleware model does not declare. The middleware model is
// conformed to the middleware metamodel and compiled; the application
// model, if any, is conformed to dsml, the DSML of the platforms the
// snapshot will be restored into. That is one walk per model, and
// restoring the returned Snapshot walks neither again.
func DecodeSnapshot(data []byte, dsml *metamodel.Metamodel) (*Snapshot, error) {
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
	if mw, err = mw.Conform(mwmeta.MM()); err != nil {
		return nil, fmt.Errorf("runtime: restore: middleware model does not conform: %w", err)
	}
	plan, err := compile(mw)
	if err != nil {
		return nil, fmt.Errorf("runtime: restore: %w", err)
	}
	if doc.Controller != nil && plan.controller == nil {
		return nil, fmt.Errorf("runtime: restore: snapshot has Controller state but the middleware model declares no ControllerLayer")
	}
	s := &Snapshot{
		name:        doc.Name,
		domain:      doc.Domain,
		plan:        plan,
		controller:  doc.Controller,
		broker:      doc.Broker,
		deadLetters: doc.DeadLetter,
	}
	if doc.Synthesis != nil {
		if plan.synthesis == nil {
			return nil, fmt.Errorf("runtime: restore: snapshot has Synthesis state but the middleware model declares no SynthesisLayer")
		}
		if dsml == nil {
			return nil, fmt.Errorf("runtime: restore: snapshot has an application model but no DSML to check it against")
		}
		app, err := metamodel.UnmarshalModel(doc.Synthesis.AppModel)
		if err != nil {
			return nil, fmt.Errorf("runtime: restore: application model: %w", err)
		}
		if app, err = app.Conform(dsml); err != nil {
			return nil, fmt.Errorf("runtime: restore: application model does not conform to %s: %w", dsml.Name, err)
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
// checking the application model against deps.DSML, then
// RestoreSnapshot.
func Restore(data []byte, deps Deps, cfg Config) (*Platform, error) {
	s, err := DecodeSnapshot(data, deps.DSML)
	if err != nil {
		return nil, err
	}
	return RestoreSnapshot(s, deps, cfg)
}

// RestoreSnapshot rebuilds a platform from a Snapshot: the snapshot's plan
// is instantiated through the same factory as Build (bound to the given
// DSK deps), then the captured layer state is reinstated — committed
// application model, LTS position, contexts, resource state, open
// breakers and dead letters. Both models were checked when the snapshot
// was captured or decoded, so the restore walks and parses nothing, and
// the restored platform shares the snapshot's plan and committed model
// instead of copying them. deps.DSML must be the DSML the snapshot's
// application model conforms to: the captured platform's, or the one it
// was decoded against. The restored platform is not started; call Start
// (and Monitor) as after Build.
func RestoreSnapshot(s *Snapshot, deps Deps, cfg Config) (*Platform, error) {
	p, err := Instantiate(s.plan, deps, cfg)
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
	// A captured snapshot's layers are its plan's; a decoded one's were
	// checked against its plan by DecodeSnapshot.
	if c := s.controller; c != nil {
		for k, v := range c.Context {
			p.Controller.Context().Set(k, v)
		}
		p.Controller.RestoreStats(c.Stats)
	}
	if syn := s.synthesis; syn != nil {
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
		// backlog. The pump counted each of these events dead-lettered
		// when it parked it, and a host restoring onto the same metrics
		// keeps that ledger, so the overflow counts only in dlq.lost
		// (registered on first use), as a lost replay does.
		p.metrics.Counter(obs.MDLQLost).Inc()
	}
	p.gDLQDepth.Set(int64(p.dlq.size()))
	return p, nil
}
