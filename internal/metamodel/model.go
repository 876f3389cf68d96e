package metamodel

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNotFound is returned by lookups that miss.
var ErrNotFound = errors.New("not found")

// Object is an instance of a metamodel class. Attribute values hold
// canonical representations (string, int64, float64, bool); references hold
// ordered lists of target object IDs.
type Object struct {
	ID    string
	Class string
	attrs map[string]any
	refs  map[string][]string
}

// NewObject creates an object of the given class with the given identity.
func NewObject(id, class string) *Object {
	return &Object{
		ID:    id,
		Class: class,
		attrs: make(map[string]any),
		refs:  make(map[string][]string),
	}
}

// SetAttr sets an attribute value. The value is stored as given; conformance
// against the metamodel is checked by Model.Validate.
func (o *Object) SetAttr(name string, v any) *Object {
	switch n := v.(type) {
	case int:
		v = int64(n)
	case float32:
		v = float64(n)
	}
	o.attrs[name] = v
	return o
}

// UnsetAttr removes an attribute value. Validation re-applies the class
// default, if any; unsetting a required attribute without a default makes
// the model non-conformant.
func (o *Object) UnsetAttr(name string) *Object {
	delete(o.attrs, name)
	return o
}

// Attr returns the attribute value and whether it is set.
func (o *Object) Attr(name string) (any, bool) {
	v, ok := o.attrs[name]
	return v, ok
}

// StringAttr returns the attribute as a string, or "" when unset or of a
// different type.
func (o *Object) StringAttr(name string) string {
	s, _ := o.attrs[name].(string)
	return s
}

// IntAttr returns the attribute as an int64, or 0 when unset.
func (o *Object) IntAttr(name string) int64 {
	switch n := o.attrs[name].(type) {
	case int64:
		return n
	case float64:
		return int64(n)
	default:
		return 0
	}
}

// FloatAttr returns the attribute as a float64, or 0 when unset.
func (o *Object) FloatAttr(name string) float64 {
	switch n := o.attrs[name].(type) {
	case float64:
		return n
	case int64:
		return float64(n)
	default:
		return 0
	}
}

// BoolAttr returns the attribute as a bool, or false when unset.
func (o *Object) BoolAttr(name string) bool {
	b, _ := o.attrs[name].(bool)
	return b
}

// AttrNames returns the set attribute names in sorted order.
func (o *Object) AttrNames() []string {
	names := make([]string, 0, len(o.attrs))
	for n := range o.attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SetRef replaces the reference's targets.
func (o *Object) SetRef(name string, targets ...string) *Object {
	o.refs[name] = append([]string(nil), targets...)
	return o
}

// AddRef appends a target to a reference, ignoring duplicates.
func (o *Object) AddRef(name, target string) *Object {
	for _, t := range o.refs[name] {
		if t == target {
			return o
		}
	}
	o.refs[name] = append(o.refs[name], target)
	return o
}

// RemoveRef removes a target from a reference. It is a no-op when absent.
func (o *Object) RemoveRef(name, target string) *Object {
	ts := o.refs[name]
	for i, t := range ts {
		if t == target {
			o.refs[name] = append(ts[:i:i], ts[i+1:]...)
			return o
		}
	}
	return o
}

// Refs returns a copy of the reference's target IDs.
func (o *Object) Refs(name string) []string {
	return append([]string(nil), o.refs[name]...)
}

// Ref returns the single target of a reference, or "" when unset.
func (o *Object) Ref(name string) string {
	ts := o.refs[name]
	if len(ts) == 0 {
		return ""
	}
	return ts[0]
}

// RefNames returns the set reference names in sorted order.
func (o *Object) RefNames() []string {
	names := make([]string, 0, len(o.refs))
	for n := range o.refs {
		if len(o.refs[n]) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Clone returns a deep copy of the object.
func (o *Object) Clone() *Object {
	c := NewObject(o.ID, o.Class)
	for k, v := range o.attrs {
		c.attrs[k] = v
	}
	for k, v := range o.refs {
		c.refs[k] = append([]string(nil), v...)
	}
	return c
}

// Model is a set of objects conforming (once validated) to a metamodel.
type Model struct {
	MetamodelName string
	objects       map[string]*Object
	order         []string
}

// NewModel creates an empty model declared against the named metamodel.
func NewModel(metamodelName string) *Model {
	return &Model{
		MetamodelName: metamodelName,
		objects:       make(map[string]*Object),
	}
}

// Add inserts an object. It returns an error on a duplicate ID.
func (m *Model) Add(o *Object) error {
	if o.ID == "" {
		return errors.New("object with empty ID")
	}
	if _, ok := m.objects[o.ID]; ok {
		return fmt.Errorf("duplicate object ID %q", o.ID)
	}
	m.objects[o.ID] = o
	m.order = append(m.order, o.ID)
	return nil
}

// MustAdd is Add that panics on error; for model construction in code where a
// failure is a programming bug.
func (m *Model) MustAdd(o *Object) *Object {
	if err := m.Add(o); err != nil {
		panic(err)
	}
	return o
}

// NewObject creates an object, adds it, and returns it. It panics on a
// duplicate ID (programming bug in model-building code).
func (m *Model) NewObject(id, class string) *Object {
	return m.MustAdd(NewObject(id, class))
}

// Get returns the object with the given ID, or nil.
func (m *Model) Get(id string) *Object { return m.objects[id] }

// Delete removes the object with the given ID. It returns ErrNotFound when
// absent. References from other objects are left dangling; Validate reports
// them.
func (m *Model) Delete(id string) error {
	if _, ok := m.objects[id]; !ok {
		return fmt.Errorf("object %q: %w", id, ErrNotFound)
	}
	delete(m.objects, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// Len returns the number of objects.
func (m *Model) Len() int { return len(m.objects) }

// IDs returns all object IDs in insertion order.
func (m *Model) IDs() []string { return append([]string(nil), m.order...) }

// Objects returns all objects in insertion order.
func (m *Model) Objects() []*Object {
	out := make([]*Object, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.objects[id])
	}
	return out
}

// ObjectsOf returns the objects whose class is exactly the given class, in
// insertion order.
func (m *Model) ObjectsOf(class string) []*Object {
	var out []*Object
	for _, id := range m.order {
		if o := m.objects[id]; o.Class == class {
			out = append(out, o)
		}
	}
	return out
}

// ObjectsKindOf returns objects whose class equals or inherits from class,
// resolved against mm, in insertion order.
func (m *Model) ObjectsKindOf(mm *Metamodel, class string) []*Object {
	var out []*Object
	for _, id := range m.order {
		if o := m.objects[id]; mm.IsSubclassOf(o.Class, class) {
			out = append(out, o)
		}
	}
	return out
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := NewModel(m.MetamodelName)
	for _, id := range m.order {
		c.MustAdd(m.objects[id].Clone())
	}
	return c
}

// Resolve returns the targets of a reference as objects, skipping dangling
// IDs.
func (m *Model) Resolve(o *Object, ref string) []*Object {
	var out []*Object
	for _, id := range o.Refs(ref) {
		if t := m.objects[id]; t != nil {
			out = append(out, t)
		}
	}
	return out
}

// ResolveOne returns the single target object of a reference, or nil.
func (m *Model) ResolveOne(o *Object, ref string) *Object {
	id := o.Ref(ref)
	if id == "" {
		return nil
	}
	return m.objects[id]
}

// Validate checks conformance of the model against mm: known non-abstract
// classes, known features, type-correct attribute values (applying defaults
// for unset attributes with a default), required features present,
// cardinality respected, reference targets present and type-conformant,
// single containment and containment acyclicity.
//
// It dispatches through mm's compiled form (see Compile), which is
// semantically identical to the interpreted reference walk but skips the
// per-object inheritance-chain resolution. Only when the metamodel itself
// does not compile (it is malformed) does the interpreted walk run instead.
func (m *Model) Validate(mm *Metamodel) error {
	if cm, err := mm.Compiled(); err == nil {
		noteFast()
		return cm.Validate(m)
	}
	noteFallback()
	return m.validateInterpreted(mm)
}

// ValidateInterpreted runs the interpreted reference validator. The
// differential tests, the fuzzers and BenchmarkValidateInterpreted call it
// to pin the compiled validator's behaviour; it remains the semantic
// ground truth.
func (m *Model) ValidateInterpreted(mm *Metamodel) error {
	noteInterpreted()
	return m.validateInterpreted(mm)
}

func (m *Model) validateInterpreted(mm *Metamodel) error {
	var errs errorList
	container := make(map[string]string) // contained ID -> container ID
	for _, id := range m.order {
		o := m.objects[id]
		c := mm.Class(o.Class)
		if c == nil {
			errs.addf("object %s: unknown class %q", id, o.Class)
			continue
		}
		if c.Abstract {
			errs.addf("object %s: class %q is abstract", id, o.Class)
		}
		attrs := make(map[string]Attribute)
		for _, a := range mm.AllAttributes(o.Class) {
			attrs[a.Name] = a
		}
		refs := make(map[string]Reference)
		for _, r := range mm.AllReferences(o.Class) {
			refs[r.Name] = r
		}
		for _, name := range o.AttrNames() {
			a, ok := attrs[name]
			if !ok {
				errs.addf("object %s (%s): unknown attribute %q", id, o.Class, name)
				continue
			}
			v, _ := o.Attr(name)
			nv, err := NormalizeValue(a.Kind, v)
			if err != nil {
				errs.addf("object %s (%s): attribute %s: %v", id, o.Class, name, err)
				continue
			}
			if a.Kind == KindEnum {
				if e := mm.Enum(a.EnumType); e != nil && !e.Has(nv.(string)) {
					errs.addf("object %s (%s): attribute %s: %q is not a literal of %s",
						id, o.Class, name, nv, a.EnumType)
				}
			}
			o.attrs[name] = nv
		}
		for _, a := range attrs {
			if _, set := o.Attr(a.Name); set {
				continue
			}
			if a.Default != nil {
				nv, err := NormalizeValue(a.Kind, a.Default)
				if err == nil {
					o.attrs[a.Name] = nv
					continue
				}
			}
			if a.Required {
				errs.addf("object %s (%s): required attribute %q unset", id, o.Class, a.Name)
			}
		}
		for _, name := range o.RefNames() {
			r, ok := refs[name]
			if !ok {
				errs.addf("object %s (%s): unknown reference %q", id, o.Class, name)
				continue
			}
			targets := o.Refs(name)
			if !r.Many && len(targets) > 1 {
				errs.addf("object %s (%s): reference %s: %d targets on single-valued reference",
					id, o.Class, name, len(targets))
			}
			for _, tid := range targets {
				t := m.objects[tid]
				if t == nil {
					errs.addf("object %s (%s): reference %s: dangling target %q", id, o.Class, name, tid)
					continue
				}
				if !mm.IsSubclassOf(t.Class, r.Target) {
					errs.addf("object %s (%s): reference %s: target %s has class %s, want %s",
						id, o.Class, name, tid, t.Class, r.Target)
				}
				if r.Containment {
					if prev, owned := container[tid]; owned && prev != id {
						errs.addf("object %s: contained by both %s and %s", tid, prev, id)
					}
					container[tid] = id
				}
			}
		}
		for _, r := range refs {
			if r.Required && len(o.Refs(r.Name)) == 0 {
				errs.addf("object %s (%s): required reference %q unset", id, o.Class, r.Name)
			}
		}
	}
	// Containment acyclicity: walk each chain up; a repeat means a cycle.
	for id := range container {
		seen := map[string]bool{id: true}
		for cur := container[id]; cur != ""; cur = container[cur] {
			if seen[cur] {
				errs.addf("containment cycle involving object %s", cur)
				break
			}
			seen[cur] = true
		}
	}
	return errs.err()
}
