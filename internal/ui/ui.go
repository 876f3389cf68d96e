// Package ui implements the User Interface layer of the MD-DSM reference
// architecture (paper §III). The original platforms leaned on Eclipse
// EMF/GMF-generated editors; here the layer provides the equivalent
// programmatic modeling environment: drafts edited against the DSML
// metamodel, local conformance validation, submission to the Synthesis
// layer, and observation of the runtime model published back by the
// dispatcher (models@runtime round trip).
package ui

import (
	"fmt"
	"sync"

	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/script"
)

// SubmitFunc delivers a user model to the Synthesis layer and returns the
// control script it produced.
type SubmitFunc func(*metamodel.Model) (*script.Script, error)

// Listener receives each committed runtime model together with the change
// list that produced it from the previous one. The model is shared and
// immutable: listeners read it and may keep it, but never modify it.
type Listener func(m *metamodel.Model, changes metamodel.ChangeList)

// UI is the live UI layer.
type UI struct {
	name   string
	dsml   *metamodel.Metamodel
	submit SubmitFunc

	tracer   *obs.Tracer
	mSubmits *obs.Counter

	mu        sync.Mutex
	runtime   *metamodel.Model // the last committed model; shared, never modified
	listeners []Listener
}

// Option customises UI construction.
type Option func(*UI)

// WithObs attaches an observability pair to the layer; both arguments may
// be nil (disabled).
func WithObs(t *obs.Tracer, m *obs.Metrics) Option {
	return func(u *UI) {
		u.tracer = t
		u.mSubmits = m.Counter(obs.MUISubmits)
	}
}

// New builds a UI layer for a DSML. submit is normally the Synthesis
// layer's Submit method.
func New(name string, dsml *metamodel.Metamodel, submit SubmitFunc, opts ...Option) (*UI, error) {
	if dsml == nil {
		return nil, fmt.Errorf("ui %s: nil DSML metamodel", name)
	}
	if submit == nil {
		return nil, fmt.Errorf("ui %s: nil submit function", name)
	}
	u := &UI{
		name:    name,
		dsml:    dsml,
		submit:  submit,
		runtime: metamodel.NewModel(dsml.Name),
	}
	for _, o := range opts {
		o(u)
	}
	return u, nil
}

// Submit sends a complete application model through the layer to the
// Synthesis layer below: the programmatic equivalent of saving a finished
// diagram in the generated editors. Drafts route through here too, so
// every user submission crosses the ui.submit span.
func (u *UI) Submit(m *metamodel.Model) (*script.Script, error) {
	u.mSubmits.Inc()
	sp := u.tracer.Start(obs.SpanUISubmit)
	defer sp.End()
	return u.submit(m)
}

// Name returns the layer instance name.
func (u *UI) Name() string { return u.name }

// DSML returns the application modeling language metamodel.
func (u *UI) DSML() *metamodel.Metamodel { return u.dsml }

// NewDraft starts an empty model draft.
func (u *UI) NewDraft() *Draft {
	return &Draft{ui: u, model: metamodel.NewModel(u.dsml.Name)}
}

// EditDraft starts a draft seeded from the latest runtime model, the usual
// flow for incremental (models@runtime) updates.
func (u *UI) EditDraft() *Draft {
	return &Draft{ui: u, model: u.RuntimeModel()}
}

// RuntimeModel returns a copy of the last published runtime model.
func (u *UI) RuntimeModel() *metamodel.Model {
	return u.Committed().Clone()
}

// Committed returns the last published runtime model itself, without
// copying. It is shared and immutable: callers must not modify it.
func (u *UI) Committed() *metamodel.Model {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.runtime
}

// OnRuntimeModel receives the committed runtime model and its change list
// from the Synthesis dispatcher, keeps the model and passes both on to
// subscribers. The model is shared, not copied: the dispatcher never
// modifies a model once committed.
func (u *UI) OnRuntimeModel(m *metamodel.Model, changes metamodel.ChangeList) {
	u.mu.Lock()
	u.runtime = m
	listeners := make([]Listener, len(u.listeners))
	copy(listeners, u.listeners)
	u.mu.Unlock()
	for _, fn := range listeners {
		fn(m, changes)
	}
}

// Subscribe registers a listener for runtime-model updates.
func (u *UI) Subscribe(fn Listener) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.listeners = append(u.listeners, fn)
}

// SubmitWoven weaves several concern models into one application model and
// submits the result (the paper's §IX multi-model execution: different
// models describe different concerns of the same application). The woven
// model is validated against the DSML before submission so weaving errors
// surface here rather than deep in synthesis.
func (u *UI) SubmitWoven(concerns ...*metamodel.Model) (*script.Script, error) {
	woven, err := metamodel.Merge(u.dsml.Name, concerns...)
	if err != nil {
		return nil, fmt.Errorf("ui %s: weave: %w", u.name, err)
	}
	// The woven model is private to this call, so it validates in place.
	if err := woven.Validate(u.dsml); err != nil {
		return nil, fmt.Errorf("ui %s: woven model does not conform: %w", u.name, err)
	}
	return u.Submit(woven)
}

// Draft is an editable model. It is not safe for concurrent use; each user
// session edits its own draft.
type Draft struct {
	ui    *UI
	model *metamodel.Model
}

// Add creates an object in the draft. Unknown or abstract classes are
// reported immediately — the editor equivalent of a greyed-out palette
// entry.
func (d *Draft) Add(id, class string) (*metamodel.Object, error) {
	c := d.ui.dsml.Class(class)
	if c == nil {
		return nil, fmt.Errorf("ui %s: unknown class %q", d.ui.name, class)
	}
	if c.Abstract {
		return nil, fmt.Errorf("ui %s: class %q is abstract", d.ui.name, class)
	}
	o := metamodel.NewObject(id, class)
	if err := d.model.Add(o); err != nil {
		return nil, fmt.Errorf("ui %s: %w", d.ui.name, err)
	}
	return o, nil
}

// MustAdd is Add that panics on error, for tests and examples where a
// failure is a programming bug.
func (d *Draft) MustAdd(id, class string) *metamodel.Object {
	o, err := d.Add(id, class)
	if err != nil {
		panic(err)
	}
	return o
}

// Object returns an object of the draft for editing, or nil.
func (d *Draft) Object(id string) *metamodel.Object { return d.model.Get(id) }

// Remove deletes an object from the draft along with any references other
// draft objects hold to it.
func (d *Draft) Remove(id string) error {
	if err := d.model.Delete(id); err != nil {
		return fmt.Errorf("ui %s: %w", d.ui.name, err)
	}
	for _, o := range d.model.Objects() {
		for _, ref := range o.RefNames() {
			o.RemoveRef(ref, id)
		}
	}
	return nil
}

// Model returns the draft's underlying model (shared, not a copy) for
// advanced edits.
func (d *Draft) Model() *metamodel.Model { return d.model }

// Validate checks draft conformance against the DSML without submitting.
// It validates a copy, so the draft itself is left as edited (validation
// normalises values and applies defaults).
func (d *Draft) Validate() error {
	return d.model.Clone().Validate(d.ui.dsml)
}

// Submit sends the draft to the Synthesis layer and returns the control
// script the submission produced. The draft remains editable afterwards.
func (d *Draft) Submit() (*script.Script, error) {
	return d.ui.Submit(d.model)
}
