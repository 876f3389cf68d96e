// Compiled metamodels: the reflective class/attribute/reference structure of
// a Metamodel flattened into per-class layout tables so conformance
// validation runs without walking inheritance chains, re-resolving feature
// names or re-dispatching on attribute kinds. This is the KMF-style answer
// to models@runtime overhead: compile the metamodel once, validate instances
// against flat tables forever after.
//
// The compiled validator is semantically identical to the interpreted walk
// in Model.ValidateInterpreted — same verdicts, same problem messages, same
// normalising mutations — which the differential and fuzz tests pin.
package metamodel

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/mddsm/mddsm/internal/obs"
)

// CompiledMetamodel is the flat, pre-resolved runtime form of a Metamodel.
// It is immutable after Compile and safe for concurrent use.
type CompiledMetamodel struct {
	Name    string
	source  *Metamodel
	classes map[string]*compiledClass
}

// compiledClass is one class with its full inheritance chain flattened:
// every inherited attribute and reference appears directly in the layout
// tables (base-most first, matching AllAttributes/AllReferences), and the
// ancestor set answers IsSubclassOf in one map probe.
type compiledClass struct {
	name      string
	abstract  bool
	attrs     []compiledAttr
	attrIndex map[string]int32 // interned attribute-name handle → slot
	refs      []compiledRef
	refIndex  map[string]int32 // interned reference-name handle → slot
	ancestors map[string]struct{}
}

// compiledAttr is one attribute slot: the kind check resolved to a direct
// function, enum literals as a membership set, and the default value
// pre-normalised at compile time.
type compiledAttr struct {
	name     string
	kind     Kind
	enumName string
	enum     map[string]struct{} // non-nil iff kind == KindEnum
	required bool
	def      any // pre-normalised default; nil when absent
	norm     func(v any) (any, error)
}

// compiledRef is one reference slot.
type compiledRef struct {
	name        string
	target      string
	containment bool
	many        bool
	required    bool
}

// Direct normalisation slots. Error strings are byte-identical to
// NormalizeValue so compiled and interpreted validation report the same
// problems.

func normString(v any) (any, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("want string, got %T", v)
	}
	return s, nil
}

func normInt(v any) (any, error) {
	switch n := v.(type) {
	case int:
		return int64(n), nil
	case int64:
		return n, nil
	case float64:
		if n == float64(int64(n)) {
			return int64(n), nil
		}
		return nil, fmt.Errorf("non-integral value %v for int attribute", n)
	default:
		return nil, fmt.Errorf("want int, got %T", v)
	}
}

func normFloat(v any) (any, error) {
	switch n := v.(type) {
	case float64:
		return n, nil
	case int:
		return float64(n), nil
	case int64:
		return float64(n), nil
	default:
		return nil, fmt.Errorf("want float, got %T", v)
	}
}

func normBool(v any) (any, error) {
	b, ok := v.(bool)
	if !ok {
		return nil, fmt.Errorf("want bool, got %T", v)
	}
	return b, nil
}

// Compile flattens mm into its compiled form. Only well-formed metamodels
// compile; an mm whose own Validate fails is rejected, and Model.Validate
// then falls back to the interpreted walk (which tolerates broken
// metamodels the same way it always has).
func Compile(mm *Metamodel) (*CompiledMetamodel, error) {
	if err := mm.Validate(); err != nil {
		return nil, fmt.Errorf("compile metamodel %s: %w", mm.Name, err)
	}
	cm := &CompiledMetamodel{
		Name:    mm.Name,
		source:  mm,
		classes: make(map[string]*compiledClass, len(mm.classes)),
	}
	for _, name := range mm.ClassNames() {
		c := mm.classes[name]
		cc := &compiledClass{
			name:      name,
			abstract:  c.Abstract,
			ancestors: make(map[string]struct{}),
		}
		for _, a := range mm.superChain(name) {
			cc.ancestors[a.Name] = struct{}{}
		}
		attrs := mm.AllAttributes(name)
		cc.attrs = make([]compiledAttr, len(attrs))
		cc.attrIndex = make(map[string]int32, len(attrs))
		for i, a := range attrs {
			ca := compiledAttr{name: a.Name, kind: a.Kind, required: a.Required}
			switch a.Kind {
			case KindString:
				ca.norm = normString
			case KindInt:
				ca.norm = normInt
			case KindFloat:
				ca.norm = normFloat
			case KindBool:
				ca.norm = normBool
			case KindEnum:
				ca.norm = normString
				ca.enumName = a.EnumType
				e := mm.enums[a.EnumType]
				ca.enum = make(map[string]struct{}, len(e.Literals))
				for _, l := range e.Literals {
					ca.enum[l] = struct{}{}
				}
			}
			if a.Default != nil {
				// Defaults always normalise in a metamodel that passed
				// Validate; the guard mirrors the interpreted walk, which
				// silently skips an unnormalisable default.
				if nv, err := NormalizeValue(a.Kind, a.Default); err == nil {
					ca.def = nv
				}
			}
			cc.attrs[i] = ca
			cc.attrIndex[a.Name] = int32(i)
		}
		refs := mm.AllReferences(name)
		cc.refs = make([]compiledRef, len(refs))
		cc.refIndex = make(map[string]int32, len(refs))
		for i, r := range refs {
			cc.refs[i] = compiledRef{
				name:        r.Name,
				target:      r.Target,
				containment: r.Containment,
				many:        r.Many,
				required:    r.Required,
			}
			cc.refIndex[r.Name] = int32(i)
		}
		cm.classes[name] = cc
	}
	return cm, nil
}

// isKindOf reports whether class equals target or inherits from it, using
// the precomputed ancestor sets (one map probe instead of a chain walk).
func (cm *CompiledMetamodel) isKindOf(class, target string) bool {
	cc := cm.classes[class]
	if cc == nil {
		return false
	}
	_, ok := cc.ancestors[target]
	return ok
}

// Validate checks conformance of m against the compiled metamodel. It is
// behaviourally identical to Model.ValidateInterpreted, including the
// normalising mutations (attribute values coerced to canonical
// representations, defaults applied to unset attributes).
func (cm *CompiledMetamodel) Validate(m *Model) error {
	var errs errorList
	var container map[string]string // contained ID -> container ID
	for _, id := range m.order {
		cm.validateObject(m, id, m.objects[id], &errs, func(tid, owner string) {
			if container == nil {
				container = make(map[string]string)
			}
			if prev, owned := container[tid]; owned && prev != owner {
				errs.addf("object %s: contained by both %s and %s", tid, prev, owner)
			}
			container[tid] = owner
		})
	}
	containmentCycles(container, &errs)
	return errs.err()
}

// validateObject checks one object against the compiled layout, appending
// problems to errs and applying the normalising mutations (canonical value
// coercion, defaults). Containment claims are reported through claim —
// claim(target, owner) for every containment reference edge, in reference
// iteration order — so full validation and the delta validator share the
// per-object walk while accounting ownership differently.
func (cm *CompiledMetamodel) validateObject(m *Model, id string, o *Object, errs *errorList, claim func(target, owner string)) {
	cc := cm.classes[o.Class]
	if cc == nil {
		errs.addf("object %s: unknown class %q", id, o.Class)
		return
	}
	if cc.abstract {
		errs.addf("object %s: class %q is abstract", id, o.Class)
	}
	for name, v := range o.attrs {
		idx, ok := cc.attrIndex[name]
		if !ok {
			errs.addf("object %s (%s): unknown attribute %q", id, o.Class, name)
			continue
		}
		ca := &cc.attrs[idx]
		nv, err := ca.norm(v)
		if err != nil {
			errs.addf("object %s (%s): attribute %s: %v", id, o.Class, name, err)
			continue
		}
		if ca.enum != nil {
			if _, lit := ca.enum[nv.(string)]; !lit {
				errs.addf("object %s (%s): attribute %s: %q is not a literal of %s",
					id, o.Class, name, nv, ca.enumName)
			}
		}
		o.attrs[name] = nv
	}
	for i := range cc.attrs {
		ca := &cc.attrs[i]
		if _, set := o.attrs[ca.name]; set {
			continue
		}
		if ca.def != nil {
			o.attrs[ca.name] = ca.def
			continue
		}
		if ca.required {
			errs.addf("object %s (%s): required attribute %q unset", id, o.Class, ca.name)
		}
	}
	for name, targets := range o.refs {
		if len(targets) == 0 {
			continue
		}
		idx, ok := cc.refIndex[name]
		if !ok {
			errs.addf("object %s (%s): unknown reference %q", id, o.Class, name)
			continue
		}
		cr := &cc.refs[idx]
		if !cr.many && len(targets) > 1 {
			errs.addf("object %s (%s): reference %s: %d targets on single-valued reference",
				id, o.Class, name, len(targets))
		}
		for _, tid := range targets {
			t := m.objects[tid]
			if t == nil {
				errs.addf("object %s (%s): reference %s: dangling target %q", id, o.Class, name, tid)
				continue
			}
			if !cm.isKindOf(t.Class, cr.target) {
				errs.addf("object %s (%s): reference %s: target %s has class %s, want %s",
					id, o.Class, name, tid, t.Class, cr.target)
			}
			if cr.containment {
				claim(tid, id)
			}
		}
	}
	for i := range cc.refs {
		cr := &cc.refs[i]
		if cr.required && len(o.refs[cr.name]) == 0 {
			errs.addf("object %s (%s): required reference %q unset", id, o.Class, cr.name)
		}
	}
}

// containmentCycles runs the acyclicity walk over a complete contained →
// container map, appending one "containment cycle involving object X"
// problem per contained object whose upward chain revisits a node (X names
// the first revisited node of that walk) — the same messages, same
// multiset, as the interpreted validator.
func containmentCycles(container map[string]string, errs *errorList) {
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
}

// compileSlot caches a metamodel's compiled form (or the compile error) for
// one structural version.
type compileSlot struct {
	version uint64
	cm      *CompiledMetamodel
	err     error
}

// Compiled returns the metamodel's compiled form, compiling lazily and
// caching the result until the metamodel is structurally mutated. Reads are
// lock-free; a concurrent recompile after mutation is idempotent.
func (m *Metamodel) Compiled() (*CompiledMetamodel, error) {
	if s := m.compiled.Load(); s != nil && s.version == m.version {
		return s.cm, s.err
	}
	start := time.Now()
	cm, err := Compile(m)
	d := time.Since(start)
	statCompiles.Add(1)
	if err != nil {
		statCompileFails.Add(1)
	}
	statCompileNanos.Add(int64(d))
	if b := boundVal.Load(); b != nil {
		b.compiles.Inc()
		if err != nil {
			b.compileFails.Inc()
		}
		b.compileLatency.Observe(d)
	}
	m.compiled.Store(&compileSlot{version: m.version, cm: cm, err: err})
	return cm, err
}

// ---------------------------------------------------------------------------
// Validation dispatch statistics
// ---------------------------------------------------------------------------

// Package-wide dispatch statistics. The atomics are always maintained (they
// are cheap and make ValidationStats usable without an obs registry); the
// obs instruments mirror them once BindMetrics arms a registry.
var (
	statCompiles     atomic.Int64
	statCompileFails atomic.Int64
	statCompileNanos atomic.Int64
	statFast         atomic.Int64
	statInterpreted  atomic.Int64
	statFallback     atomic.Int64

	boundVal atomic.Pointer[valInstruments]
)

type valInstruments struct {
	compiles       *obs.Counter
	compileFails   *obs.Counter
	compileLatency *obs.Histogram
	fast           *obs.Counter
	interpreted    *obs.Counter
	fallback       *obs.Counter
}

// BindMetrics mirrors the package's validation-dispatch and compile
// statistics into reg under the canonical obs names. Binding a nil registry
// disarms the mirror.
func BindMetrics(reg *obs.Metrics) {
	if reg == nil {
		boundVal.Store(nil)
		return
	}
	boundVal.Store(&valInstruments{
		compiles:       reg.Counter(obs.MMetamodelCompiles),
		compileFails:   reg.Counter(obs.MMetamodelCompileErr),
		compileLatency: reg.Histogram(obs.HMetamodelCompile),
		fast:           reg.Counter(obs.MValidateFast),
		interpreted:    reg.Counter(obs.MValidateInterpreted),
		fallback:       reg.Counter(obs.MValidateFallback),
	})
}

// ValidationStats reports process-wide validation dispatch counts: compiled
// fast-path validations, interpreted validations (direct ValidateInterpreted
// calls), fallbacks (Validate against an uncompilable metamodel), metamodel
// compiles, and total time spent compiling.
func ValidationStats() (fast, interpreted, fallback, compiles int64, compileTime time.Duration) {
	return statFast.Load(), statInterpreted.Load(), statFallback.Load(),
		statCompiles.Load(), time.Duration(statCompileNanos.Load())
}

func noteFast() {
	statFast.Add(1)
	if b := boundVal.Load(); b != nil {
		b.fast.Inc()
	}
}

func noteInterpreted() {
	statInterpreted.Add(1)
	if b := boundVal.Load(); b != nil {
		b.interpreted.Inc()
	}
}

func noteFallback() {
	statFallback.Add(1)
	if b := boundVal.Load(); b != nil {
		b.fallback.Inc()
	}
}
