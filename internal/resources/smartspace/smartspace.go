// Package smartspace simulates the programmable smart-space environment
// that 2SVM configures (paper §IV-C): smart objects with typed properties
// that enter and leave the space asynchronously, and a command surface the
// broker layer running *on each smart object* uses to configure it.
package smartspace

import (
	"fmt"
	"sort"
	"sync"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/script"
)

// SmartObject is one programmable entity in the space.
type SmartObject struct {
	ID      string
	Kind    string // e.g. "lamp", "thermostat", "door", "speaker"
	Present bool
	props   map[string]any
}

// Prop returns a property value and whether it is set.
func (o *SmartObject) Prop(name string) (any, bool) {
	v, ok := o.props[name]
	return v, ok
}

// PropNames returns the set property names sorted.
func (o *SmartObject) PropNames() []string {
	out := make([]string, 0, len(o.props))
	for n := range o.props {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Space is the simulated smart space. It is safe for concurrent use.
type Space struct {
	mu      sync.Mutex
	objects map[string]*SmartObject
	sink    func(broker.Event)
	trace   *script.Trace
}

// NewSpace creates an empty space. sink receives the space's asynchronous
// events and may be nil. Event names: "objectEntered", "objectLeft",
// "propertyChanged"; attribute keys: "object", "prop", "value".
func NewSpace(sink func(broker.Event)) *Space {
	return &Space{
		objects: make(map[string]*SmartObject),
		sink:    sink,
		trace:   &script.Trace{},
	}
}

// Trace returns the recorded command trace.
func (s *Space) Trace() *script.Trace { return s.trace }

func (s *Space) emit(e broker.Event) {
	if s.sink != nil {
		s.sink(e)
	}
}

// Enter brings a smart object into the space (registering it on first
// entry) and emits objectEntered. Events are emitted outside the lock so a
// synchronous sink may re-enter the space.
func (s *Space) Enter(id, kind string) error {
	s.mu.Lock()
	o, ok := s.objects[id]
	if ok {
		if o.Present {
			s.mu.Unlock()
			return fmt.Errorf("smartspace: object %q already present", id)
		}
		o.Present = true
	} else {
		if kind == "" {
			s.mu.Unlock()
			return fmt.Errorf("smartspace: object %q needs a kind on first entry", id)
		}
		o = &SmartObject{ID: id, Kind: kind, Present: true, props: make(map[string]any)}
		s.objects[id] = o
	}
	s.trace.RecordOp("enter", "object:"+id, "kind", o.Kind)
	s.mu.Unlock()
	s.emit(broker.NewEvent("objectEntered", "object", id))
	return nil
}

// Leave removes a smart object from the space (its registration and
// properties persist) and emits objectLeft.
func (s *Space) Leave(id string) error {
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok || !o.Present {
		s.mu.Unlock()
		return fmt.Errorf("smartspace: object %q not present", id)
	}
	o.Present = false
	s.trace.RecordOp("leave", "object:"+id)
	s.mu.Unlock()
	s.emit(broker.NewEvent("objectLeft", "object", id))
	return nil
}

// SetProperty configures a property of a present object and emits
// propertyChanged.
func (s *Space) SetProperty(id, prop string, value any) error {
	s.mu.Lock()
	o, ok := s.objects[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("smartspace: unknown object %q", id)
	}
	if !o.Present {
		s.mu.Unlock()
		return fmt.Errorf("smartspace: object %q not present", id)
	}
	o.props[prop] = value
	s.trace.RecordOp("setProperty", "object:"+id, "prop", prop, "value", value)
	s.mu.Unlock()
	s.emit(broker.NewEvent("propertyChanged", "object", id, "prop", prop, "value", value))
	return nil
}

// Object returns a copy of an object's state, or false when unknown.
func (s *Space) Object(id string) (SmartObject, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return SmartObject{}, false
	}
	cp := *o
	cp.props = make(map[string]any, len(o.props))
	for k, v := range o.props {
		cp.props[k] = v
	}
	return cp, true
}

// Present returns the IDs of present objects sorted.
func (s *Space) Present() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id, o := range s.objects {
		if o.Present {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Known returns all registered object IDs sorted.
func (s *Space) Known() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.objects))
	for id := range s.objects {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
