package metamodel

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// ChangeKind enumerates model change operations.
type ChangeKind int

// Change kinds, ordered the way the Synthesis layer wants to process them:
// removals before additions so resources can be torn down before new ones
// are brought up.
const (
	ChangeRemoveObject ChangeKind = iota + 1
	ChangeAddObject
	ChangeSetAttr
	ChangeUnsetAttr
	ChangeAddRef
	ChangeRemoveRef
)

// String returns a short mnemonic for the change kind.
func (k ChangeKind) String() string {
	switch k {
	case ChangeRemoveObject:
		return "remove-object"
	case ChangeAddObject:
		return "add-object"
	case ChangeSetAttr:
		return "set-attr"
	case ChangeUnsetAttr:
		return "unset-attr"
	case ChangeAddRef:
		return "add-ref"
	case ChangeRemoveRef:
		return "remove-ref"
	default:
		return fmt.Sprintf("change(%d)", int(k))
	}
}

// Change is one atomic difference between two models.
type Change struct {
	Kind     ChangeKind
	ObjectID string
	Class    string // class of the object concerned
	Feature  string // attribute or reference name, when applicable
	Old      any    // previous attribute value (ChangeSetAttr/ChangeUnsetAttr)
	New      any    // new attribute value (ChangeSetAttr, ChangeAddObject ignored)
	Target   string // reference target (ChangeAddRef/ChangeRemoveRef)
}

// String renders the change compactly for logs and traces.
func (c Change) String() string {
	switch c.Kind {
	case ChangeRemoveObject, ChangeAddObject:
		return fmt.Sprintf("%s %s:%s", c.Kind, c.ObjectID, c.Class)
	case ChangeSetAttr:
		return fmt.Sprintf("%s %s.%s %v->%v", c.Kind, c.ObjectID, c.Feature, c.Old, c.New)
	case ChangeUnsetAttr:
		return fmt.Sprintf("%s %s.%s (was %v)", c.Kind, c.ObjectID, c.Feature, c.Old)
	case ChangeAddRef, ChangeRemoveRef:
		return fmt.Sprintf("%s %s.%s -> %s", c.Kind, c.ObjectID, c.Feature, c.Target)
	default:
		return fmt.Sprintf("%s %s", c.Kind, c.ObjectID)
	}
}

// ChangeList is an ordered sequence of changes. Diff produces it in a
// deterministic order; Apply consumes it.
type ChangeList []Change

// String joins the changes one per line.
func (cl ChangeList) String() string {
	parts := make([]string, len(cl))
	for i, c := range cl {
		parts[i] = c.String()
	}
	return strings.Join(parts, "\n")
}

// Empty reports whether the list has no changes.
func (cl ChangeList) Empty() bool { return len(cl) == 0 }

// Diff computes the change list that transforms old into new. The result is
// deterministic: removals (sorted by ID, refs removed before the object),
// then additions (in new-model insertion order), then attribute and
// reference updates on surviving objects (sorted by ID then feature).
// A model diffed against itself yields an empty list without a walk.
func Diff(oldM, newM *Model) ChangeList {
	return diffOrdered(oldM, newM, nil)
}

// DiffWithContainment is Diff with containment-aware removal ordering:
// objects contained (directly or transitively) in another removed object
// are removed first, so teardown proceeds children-before-containers. The
// Synthesis layer uses this so e.g. a stream's close command executes while
// its session still exists. Ties are broken by ID for determinism.
func DiffWithContainment(oldM, newM *Model, mm *Metamodel) ChangeList {
	if oldM == newM {
		return nil
	}
	depth := containmentDepths(oldM, mm)
	return diffOrdered(oldM, newM, depth)
}

// containmentDepths computes each object's containment depth in the model
// (roots are 0) using the metamodel's containment references.
func containmentDepths(m *Model, mm *Metamodel) map[string]int {
	container := make(map[string]string)
	for _, o := range m.Objects() {
		for _, ref := range mm.AllReferences(o.Class) {
			if !ref.Containment {
				continue
			}
			for _, child := range o.Refs(ref.Name) {
				container[child] = o.ID
			}
		}
	}
	depth := make(map[string]int, len(container))
	var resolve func(id string, seen map[string]bool) int
	resolve = func(id string, seen map[string]bool) int {
		if d, ok := depth[id]; ok {
			return d
		}
		parent, ok := container[id]
		if !ok || seen[id] {
			depth[id] = 0
			return 0
		}
		seen[id] = true
		d := resolve(parent, seen) + 1
		depth[id] = d
		return d
	}
	for _, id := range m.IDs() {
		resolve(id, make(map[string]bool))
	}
	return depth
}

// diffOrdered is the shared diff implementation; depth (may be nil) orders
// removals deepest-first.
func diffOrdered(oldM, newM *Model, depth map[string]int) ChangeList {
	var out ChangeList
	if oldM == newM {
		return out
	}

	// An ID that survives under a different class is a different entity —
	// domain semantics key on add-object:<Class> — so reclassification is a
	// removal of the old object plus an addition of the new one, never an
	// in-place feature patch.
	reclassified := func(id string) bool {
		o, n := oldM.Get(id), newM.Get(id)
		return o != nil && n != nil && o.Class != n.Class
	}
	removed := make([]string, 0)
	for _, id := range oldM.IDs() {
		if newM.Get(id) == nil || reclassified(id) {
			removed = append(removed, id)
		}
	}
	sort.Slice(removed, func(i, j int) bool {
		di, dj := depth[removed[i]], depth[removed[j]]
		if di != dj {
			return di > dj // deepest (most-contained) first
		}
		return removed[i] < removed[j]
	})
	for _, id := range removed {
		o := oldM.Get(id)
		for _, ref := range o.RefNames() {
			for _, t := range o.Refs(ref) {
				out = append(out, Change{Kind: ChangeRemoveRef, ObjectID: id, Class: o.Class, Feature: ref, Target: t})
			}
		}
		out = append(out, Change{Kind: ChangeRemoveObject, ObjectID: id, Class: o.Class})
	}

	for _, id := range newM.IDs() {
		n := newM.Get(id)
		if oldM.Get(id) == nil || reclassified(id) {
			out = append(out, Change{Kind: ChangeAddObject, ObjectID: id, Class: n.Class})
			for _, name := range n.AttrNames() {
				v, _ := n.Attr(name)
				out = append(out, Change{Kind: ChangeSetAttr, ObjectID: id, Class: n.Class, Feature: name, New: v})
			}
			for _, ref := range n.RefNames() {
				for _, t := range n.Refs(ref) {
					out = append(out, Change{Kind: ChangeAddRef, ObjectID: id, Class: n.Class, Feature: ref, Target: t})
				}
			}
		}
	}

	surviving := make([]string, 0)
	for _, id := range oldM.IDs() {
		if newM.Get(id) != nil && !reclassified(id) {
			surviving = append(surviving, id)
		}
	}
	sort.Strings(surviving)
	for _, id := range surviving {
		o, n := oldM.Get(id), newM.Get(id)
		feats := unionSorted(o.AttrNames(), n.AttrNames())
		for _, name := range feats {
			ov, oset := o.Attr(name)
			nv, nset := n.Attr(name)
			switch {
			case oset && !nset:
				out = append(out, Change{Kind: ChangeUnsetAttr, ObjectID: id, Class: n.Class, Feature: name, Old: ov})
			case !oset && nset:
				out = append(out, Change{Kind: ChangeSetAttr, ObjectID: id, Class: n.Class, Feature: name, New: nv})
			case oset && nset && !sameValue(ov, nv):
				out = append(out, Change{Kind: ChangeSetAttr, ObjectID: id, Class: n.Class, Feature: name, Old: ov, New: nv})
			}
		}
		refs := unionSorted(o.RefNames(), n.RefNames())
		for _, ref := range refs {
			oldT := toSet(o.Refs(ref))
			newT := toSet(n.Refs(ref))
			for _, t := range sortedKeys(oldT) {
				if !newT[t] {
					out = append(out, Change{Kind: ChangeRemoveRef, ObjectID: id, Class: n.Class, Feature: ref, Target: t})
				}
			}
			for _, t := range sortedKeys(newT) {
				if !oldT[t] {
					out = append(out, Change{Kind: ChangeAddRef, ObjectID: id, Class: n.Class, Feature: ref, Target: t})
				}
			}
		}
	}
	return out
}

// Apply mutates m in place by the change list. It is the inverse check for
// Diff: Apply(old, Diff(old, new)) makes old equivalent to new. Errors are
// returned for changes that do not fit the model (e.g. removing an absent
// object).
func Apply(m *Model, changes ChangeList) error {
	for i, c := range changes {
		switch c.Kind {
		case ChangeRemoveObject:
			if err := m.Delete(c.ObjectID); err != nil {
				return fmt.Errorf("change %d (%s): %w", i, c, err)
			}
		case ChangeAddObject:
			if err := m.Add(NewObject(c.ObjectID, c.Class)); err != nil {
				return fmt.Errorf("change %d (%s): %w", i, c, err)
			}
		case ChangeSetAttr:
			o := m.Get(c.ObjectID)
			if o == nil {
				return fmt.Errorf("change %d (%s): object %q: %w", i, c, c.ObjectID, ErrNotFound)
			}
			o.SetAttr(c.Feature, c.New)
		case ChangeUnsetAttr:
			o := m.Get(c.ObjectID)
			if o == nil {
				return fmt.Errorf("change %d (%s): object %q: %w", i, c, c.ObjectID, ErrNotFound)
			}
			delete(o.attrs, c.Feature)
		case ChangeAddRef:
			o := m.Get(c.ObjectID)
			if o == nil {
				return fmt.Errorf("change %d (%s): object %q: %w", i, c, c.ObjectID, ErrNotFound)
			}
			o.AddRef(c.Feature, c.Target)
		case ChangeRemoveRef:
			o := m.Get(c.ObjectID)
			if o == nil {
				// Removals of refs held by a removed object were already
				// handled by ChangeRemoveObject; tolerate them.
				continue
			}
			o.RemoveRef(c.Feature, c.Target)
		default:
			return fmt.Errorf("change %d: invalid kind %v", i, c.Kind)
		}
	}
	return nil
}

// Equal reports whether two models contain the same objects with the same
// attributes and reference targets (reference order-insensitive).
func Equal(a, b *Model) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, id := range a.IDs() {
		oa, ob := a.Get(id), b.Get(id)
		if ob == nil || oa.Class != ob.Class {
			return false
		}
		an, bn := oa.AttrNames(), ob.AttrNames()
		if len(an) != len(bn) {
			return false
		}
		for _, n := range an {
			va, _ := oa.Attr(n)
			vb, ok := ob.Attr(n)
			if !ok || !sameValue(va, vb) {
				return false
			}
		}
		ar, br := oa.RefNames(), ob.RefNames()
		if len(ar) != len(br) {
			return false
		}
		for _, r := range ar {
			sa, sb := toSet(oa.Refs(r)), toSet(ob.Refs(r))
			if len(sa) != len(sb) {
				return false
			}
			for t := range sa {
				if !sb[t] {
					return false
				}
			}
		}
	}
	return true
}

// sameValue reports whether two attribute values are equal: with == when
// the dynamic type is comparable, element by element when it is not (a
// slice or map, such as a decoded JSON array or object, on which == would
// panic).
func sameValue(a, b any) bool {
	if t := reflect.TypeOf(a); t == nil || t.Comparable() {
		return a == b
	}
	return reflect.DeepEqual(a, b)
}

func unionSorted(a, b []string) []string {
	set := make(map[string]bool, len(a)+len(b))
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		set[s] = true
	}
	return sortedKeys(set)
}

func toSet(ss []string) map[string]bool {
	set := make(map[string]bool, len(ss))
	for _, s := range ss {
		set[s] = true
	}
	return set
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
