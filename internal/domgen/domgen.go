// Package domgen generates synthetic domain bundles: parameterised,
// seeded, fully deterministic MD-DSM domains that register through the
// internal/domains registry exactly like the hand-built ones (cml, mgrid,
// smartspace, csense).
//
// The paper's central claim is that the four-layer models@runtime
// architecture generalises across arbitrary domains; the repo's hand-built
// bundles can only witness four points of that space. A Spec names a point
// in the parameter space — class count, inheritance depth, attribute and
// enum mixes, LTS shape and density, event vocabulary — and Generate
// produces a complete domain for it: an application DSML that compiles
// through metamodel.Compile, a synthesis LTS that passes the core's
// LTS↔DSML conformance check, a middleware model conforming to mwmeta.MM,
// and a conformant initial application model. Everything derives from
// spec.Seed through one math/rand stream, so the same spec always yields a
// byte-identical domain — in this process, in the next one, and in CI.
//
// Generated bundles are first-class citizens of mddsm-serve: Register puts
// them in the domains registry, so synthetic tenants provision, evict,
// checkpoint and rehydrate through the exact code paths real tenants use.
// The mixed-workload harness (internal/experiments, mddsm-bench -e mixed)
// builds on that to soak every subsystem under diverse rather than uniform
// load.
package domgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/script"
)

// LTS shapes: the topology of the generated synthesis transition system.
const (
	// ShapeLoop self-loops on every state: every model-change event is
	// always enabled. The default, and the densest event coverage.
	ShapeLoop = "loop"
	// ShapeRing advances through the states cyclically: each firing
	// enables the next state's transitions.
	ShapeRing = "ring"
	// ShapeStar returns every non-initial state to s0 (and fans out from
	// s0), the hub-and-spoke pattern.
	ShapeStar = "star"
)

// Spec parameterises one synthetic domain. The zero value is valid:
// Normalized clamps every field into its documented range, so any spec —
// including fuzzer-supplied garbage — generates.
type Spec struct {
	// Name suffixes the bundle name ("syn-<Name>"); empty derives one
	// from the seed.
	Name string
	// Seed drives every random choice. Same spec (same seed included) ⇒
	// identical domain, always.
	Seed int64
	// Classes is the DSML class count (clamped to [1, 64]).
	Classes int
	// Depth bounds the inheritance chain length (clamped to [0, 16] and
	// to Classes-1).
	Depth int
	// AttrsPerClass is the attribute count per class (clamped to [0, 16]).
	AttrsPerClass int
	// Enums is the enum-type count (clamped to [0, 8]).
	Enums int
	// EnumLiterals is the literal count per enum (clamped to [1, 8]).
	EnumLiterals int
	// LTSStates is the synthesis LTS state count (clamped to [1, 16]).
	LTSStates int
	// LTSShape selects the transition topology (ShapeLoop/Ring/Star;
	// anything else normalises to ShapeLoop).
	LTSShape string
	// LTSDensity is the probability of the optional extra transitions
	// (clamped to [0, 1]; NaN normalises to 0).
	LTSDensity float64
	// EventTypes is the resource-event vocabulary size (clamped to
	// [1, 32]).
	EventTypes int
	// InitialObjects is the object count of the seeded application model
	// (clamped to [0, 128]).
	InitialObjects int
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Normalized returns the spec with every parameter clamped into its valid
// range. Generate normalises internally; callers only need this to see the
// effective parameters (the registry Doc line prints them).
func (s Spec) Normalized() Spec {
	s.Classes = clampInt(s.Classes, 1, 64)
	s.Depth = clampInt(s.Depth, 0, 16)
	if s.Depth > s.Classes-1 {
		s.Depth = s.Classes - 1
	}
	s.AttrsPerClass = clampInt(s.AttrsPerClass, 0, 16)
	s.Enums = clampInt(s.Enums, 0, 8)
	s.EnumLiterals = clampInt(s.EnumLiterals, 1, 8)
	s.LTSStates = clampInt(s.LTSStates, 1, 16)
	switch s.LTSShape {
	case ShapeLoop, ShapeRing, ShapeStar:
	default:
		s.LTSShape = ShapeLoop
	}
	if math.IsNaN(s.LTSDensity) || s.LTSDensity < 0 {
		s.LTSDensity = 0
	} else if s.LTSDensity > 1 {
		s.LTSDensity = 1
	}
	s.EventTypes = clampInt(s.EventTypes, 1, 32)
	s.InitialObjects = clampInt(s.InitialObjects, 0, 128)
	if s.Name == "" {
		s.Name = fmt.Sprintf("g%x", uint64(s.Seed))
	}
	return s
}

// Domain is one generated synthetic domain: every artefact a bundle needs,
// derived deterministically from its spec.
type Domain struct {
	// Spec is the normalised parameter point this domain realises.
	Spec Spec
	// Name is the registry bundle name ("syn-<spec.Name>").
	Name string
	// DSML is the generated application metamodel. It is shared across
	// instances (like the hand-built bundles' memoised metamodels), so
	// every tenant of this domain reuses one compiled validator.
	DSML *metamodel.Metamodel
	// LTS is the generated synthesis transition system.
	LTS *lts.LTS

	middleware *metamodel.Model
	initial    *metamodel.Model
	eventNames []string
	concrete   []string
	// shared is the checked definition (DSML, middleware model, LTS) that
	// every tenant of the domain shares.
	shared *core.Checked
}

// Middleware returns a fresh copy of the generated middleware model.
func (d *Domain) Middleware() *metamodel.Model { return d.middleware.Clone() }

// Initial returns a fresh copy of the conformant seeded application model.
func (d *Domain) Initial() *metamodel.Model { return d.initial.Clone() }

// EventNames returns the domain's resource-event vocabulary, in generation
// order (the mixed-workload driver skews load across it).
func (d *Domain) EventNames() []string {
	return append([]string(nil), d.eventNames...)
}

// ConcreteClasses returns the instantiable class names, in generation
// order.
func (d *Domain) ConcreteClasses() []string {
	return append([]string(nil), d.concrete...)
}

// Generate realises the spec as a complete domain. It fails only if a
// generated artefact does not hold its own invariant — a metamodel that
// does not validate or compile, an LTS or initial model that does not
// conform — which FuzzDomgen asserts never happens for any spec.
func Generate(spec Spec) (*Domain, error) {
	spec = spec.Normalized()
	rng := rand.New(rand.NewSource(spec.Seed))
	d := &Domain{Spec: spec, Name: "syn-" + spec.Name}

	mm, concrete, err := genMetamodel(spec, rng)
	if err != nil {
		return nil, err
	}
	d.DSML = mm
	d.concrete = concrete
	if len(concrete) == 0 {
		return nil, fmt.Errorf("domgen %s: no concrete class generated", d.Name)
	}
	// The generated metamodel must compile without fallback: the compiled
	// validator is the hot path every synthetic tenant runs on.
	if _, err := metamodel.Compile(mm); err != nil {
		return nil, fmt.Errorf("domgen %s: metamodel does not compile: %w", d.Name, err)
	}

	d.LTS = genLTS(d, rng)
	if err := d.LTS.Validate(); err != nil {
		return nil, fmt.Errorf("domgen %s: lts: %w", d.Name, err)
	}

	for i := 0; i < spec.EventTypes; i++ {
		d.eventNames = append(d.eventNames, fmt.Sprintf("ev%d", i))
	}
	d.middleware = genMiddleware(d)
	d.initial = genInitial(d, rng)
	if err := d.initial.Validate(mm); err != nil {
		return nil, fmt.Errorf("domgen %s: initial model: %w", d.Name, err)
	}

	// The core's cross-check, run once at generation so a bad domain
	// fails fast with a generator error: core.Check conforms and compiles
	// the middleware model and checks the DSML and the DSK, and every
	// tenant of the domain shares the checked definition.
	d.shared, err = core.Check(core.Definition{
		Name:       d.Name,
		DSML:       d.DSML,
		Middleware: d.middleware,
		DSK:        core.DSK{LTSes: map[string]*lts.LTS{d.LTS.Name: d.LTS}},
	})
	if err != nil {
		return nil, fmt.Errorf("domgen %s: %w", d.Name, err)
	}
	return d, nil
}

// genMetamodel builds the DSML: enums, classes with bounded-depth single
// inheritance, and a mixed attribute/reference surface. Feature names are
// prefixed by class index so inheritance chains never collide.
func genMetamodel(spec Spec, rng *rand.Rand) (*metamodel.Metamodel, []string, error) {
	mm := metamodel.New("dg-" + spec.Name)
	enumNames := make([]string, 0, spec.Enums)
	for i := 0; i < spec.Enums; i++ {
		lits := make([]string, spec.EnumLiterals)
		for j := range lits {
			lits[j] = fmt.Sprintf("l%d_%d", i, j)
		}
		name := fmt.Sprintf("E%d", i)
		if err := mm.AddEnum(&metamodel.Enum{Name: name, Literals: lits}); err != nil {
			return nil, nil, err
		}
		enumNames = append(enumNames, name)
	}

	classes := make([]*metamodel.Class, spec.Classes)
	depthOf := make([]int, spec.Classes)
	var concrete []string
	for i := 0; i < spec.Classes; i++ {
		c := &metamodel.Class{Name: fmt.Sprintf("C%d", i)}
		if i > 0 && spec.Depth > 0 && rng.Intn(2) == 0 {
			// Inherit from an earlier class whose chain still has depth
			// budget — earlier-only parents make cycles impossible by
			// construction.
			var cands []int
			for j := 0; j < i; j++ {
				if depthOf[j] < spec.Depth {
					cands = append(cands, j)
				}
			}
			if len(cands) > 0 {
				p := cands[rng.Intn(len(cands))]
				c.Super = classes[p].Name
				depthOf[i] = depthOf[p] + 1
			}
		}
		// Abstract classes exercise the instantiability check; class 0
		// stays concrete so the domain always has something to model.
		if i > 0 && rng.Intn(5) == 0 {
			c.Abstract = true
		} else {
			concrete = append(concrete, c.Name)
		}
		for a := 0; a < spec.AttrsPerClass; a++ {
			attr := metamodel.Attribute{
				Name:     fmt.Sprintf("a%d_%d", i, a),
				Required: rng.Intn(2) == 0,
			}
			kinds := 4
			if len(enumNames) > 0 {
				kinds = 5
			}
			switch rng.Intn(kinds) {
			case 0:
				attr.Kind = metamodel.KindString
				attr.Default = fmt.Sprintf("v%d", a)
			case 1:
				attr.Kind = metamodel.KindInt
				attr.Default = rng.Intn(1000)
			case 2:
				attr.Kind = metamodel.KindFloat
				attr.Default = float64(rng.Intn(1000)) / 8
			case 3:
				attr.Kind = metamodel.KindBool
				attr.Default = rng.Intn(2) == 0
			case 4:
				attr.Kind = metamodel.KindEnum
				attr.EnumType = enumNames[rng.Intn(len(enumNames))]
				attr.Default = mm.Enum(attr.EnumType).Literals[0]
			}
			c.Attributes = append(c.Attributes, attr)
		}
		classes[i] = c
		if err := mm.AddClass(c); err != nil {
			return nil, nil, err
		}
	}

	// Optional many-valued cross-references between classes (targets may
	// be declared later than their source; Validate resolves them at the
	// end). Never required, so sparse models stay conformant.
	for i, c := range classes {
		if rng.Intn(3) != 0 {
			continue
		}
		c.References = append(c.References, metamodel.Reference{
			Name:   fmt.Sprintf("r%d_0", i),
			Target: classes[rng.Intn(len(classes))].Name,
			Many:   true,
		})
	}
	if err := mm.Validate(); err != nil {
		return nil, nil, fmt.Errorf("generated metamodel invalid: %w", err)
	}
	return mm, concrete, nil
}

// genLTS builds the synthesis transition system over the generated DSML:
// add-object transitions for every concrete class per the spec's shape,
// set-attr transitions where density allows. Emitted ops ("touch",
// "record") are the vocabulary the generated Controller routes.
func genLTS(d *Domain, rng *rand.Rand) *lts.LTS {
	spec := d.Spec
	n := spec.LTSStates
	states := make([]string, n)
	for i := range states {
		states[i] = fmt.Sprintf("s%d", i)
	}
	l := lts.New(fmt.Sprintf("dg-%s-lts", spec.Name), states[0])
	l.AddState(states...)

	next := func(si, ci int) string {
		switch spec.LTSShape {
		case ShapeRing:
			return states[(si+1)%n]
		case ShapeStar:
			if si == 0 {
				return states[ci%n]
			}
			return states[0]
		default: // ShapeLoop
			return states[si]
		}
	}
	for si := range states {
		for ci, class := range d.concrete {
			// State 0 always reacts to every class, so the initial model's
			// submission is guaranteed to drive synthesis; elsewhere the
			// density parameter thins the transition relation.
			if si != 0 && rng.Float64() >= spec.LTSDensity {
				continue
			}
			l.On(states[si], "add-object:"+class, "", next(si, ci),
				lts.CommandTemplate{Op: "touch", Target: class + ":{id}"})
			if c := d.DSML.Class(class); len(c.Attributes) > 0 && rng.Intn(2) == 0 {
				l.On(states[si], "set-attr:"+class+"."+c.Attributes[0].Name, "", states[si],
					lts.CommandTemplate{Op: "record", Target: class + ":{id}",
						Args: map[string]string{"value": "{new}"}})
			}
		}
	}
	return l
}

// genMiddleware authors the middleware model: Synthesis bound to the
// generated LTS, a passthrough Controller for the LTS's emitted ops, and a
// Broker whose event actions cover the domain's event vocabulary (every
// third one forwarding upward) with all resources bound to the sink
// adapter.
func genMiddleware(d *Domain) *metamodel.Model {
	b := mwmeta.NewBuilder(d.Name, d.Name)
	b.SynthesisLayer("SYN", d.LTS.Name)
	b.ControllerLayer("CTL").
		PassthroughAction("emit", "touch,record", "",
			mwmeta.StepSpec{Op: "{op}", Target: "{target}"}).
		Done()
	bb := b.BrokerLayer("BRK")
	bb.PassthroughAction("sink", "*", "",
		mwmeta.StepSpec{Op: "{op}", Target: "{target}"})
	for i, ev := range d.eventNames {
		bb.EventAction("on-"+ev, ev, "", i%3 == 0,
			mwmeta.StepSpec{Op: "note", Target: ev})
	}
	bb.Bind("*", "sink")
	return b.Model()
}

// genInitial seeds a conformant application model: InitialObjects objects
// cycling through the concrete classes, every attribute set, references
// filled when an earlier object fits the target type.
func genInitial(d *Domain, rng *rand.Rand) *metamodel.Model {
	m := metamodel.NewModel(d.DSML.Name)
	type obj struct {
		id    string
		class string
	}
	var placed []obj
	for i := 0; i < d.Spec.InitialObjects; i++ {
		class := d.concrete[i%len(d.concrete)]
		id := fmt.Sprintf("o%d", i)
		o := m.NewObject(id, class)
		for _, a := range d.DSML.AllAttributes(class) {
			switch a.Kind {
			case metamodel.KindString:
				o.SetAttr(a.Name, fmt.Sprintf("s%d", rng.Intn(100)))
			case metamodel.KindInt:
				o.SetAttr(a.Name, rng.Intn(1000))
			case metamodel.KindFloat:
				o.SetAttr(a.Name, float64(rng.Intn(1000))/4)
			case metamodel.KindBool:
				o.SetAttr(a.Name, rng.Intn(2) == 0)
			case metamodel.KindEnum:
				e := d.DSML.Enum(a.EnumType)
				o.SetAttr(a.Name, e.Literals[rng.Intn(len(e.Literals))])
			}
		}
		for _, r := range d.DSML.AllReferences(class) {
			for _, prev := range placed {
				if d.DSML.IsSubclassOf(prev.class, r.Target) && rng.Intn(2) == 0 {
					o.AddRef(r.Name, prev.id)
					break
				}
			}
		}
		placed = append(placed, obj{id: id, class: class})
	}
	return m
}

// sink is the generated domain's sole resource adapter: it counts every
// executed command per op, deterministically renderable as the bundle
// trace.
type sink struct {
	mu     sync.Mutex
	counts map[string]int64
}

func newSink() *sink { return &sink{counts: make(map[string]int64)} }

// Execute implements broker.Adapter.
func (s *sink) Execute(cmd script.Command) error {
	s.mu.Lock()
	s.counts[cmd.Op]++
	s.mu.Unlock()
	return nil
}

// trace renders the per-op command counts sorted by op name.
func (s *sink) trace() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := make([]string, 0, len(s.counts))
	for op := range s.counts {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	parts := make([]string, 0, len(ops))
	for _, op := range ops {
		parts = append(parts, fmt.Sprintf("%s=%d", op, s.counts[op]))
	}
	return strings.Join(parts, " ")
}

// Bundle wraps the domain as a registry bundle: Assemble builds a fresh
// shell (its own sink adapter) around the domain's checked definition —
// the shared DSML, LTS, authored middleware model and its compiled plan —
// exactly the shape the hand-built bundles register.
func (d *Domain) Bundle() domains.Bundle {
	return domains.Bundle{
		Name: d.Name,
		Doc: fmt.Sprintf(
			"synthetic domain (seed %d: %d classes/depth %d, %d enums, lts %s×%d, %d event types)",
			d.Spec.Seed, d.Spec.Classes, d.Spec.Depth, d.Spec.Enums,
			d.Spec.LTSShape, d.Spec.LTSStates, d.Spec.EventTypes),
		Checked: func() (*core.Checked, error) { return d.shared, nil },
		Assemble: func(cfg domains.Config) (*domains.Instance, error) {
			snk := newSink()
			b := core.Bindings{
				Adapters:   map[string]broker.Adapter{"sink": snk},
				Obs:        cfg.Obs,
				Injector:   cfg.Injector,
				Resilience: cfg.Resilience,
			}
			return domains.NewInstance(b, snk.trace, nil), nil
		},
	}
}

// Register generates the domain and installs its bundle in the domains
// registry. Registration is idempotent for a given name: re-registering
// the same deterministic spec is a no-op, so harnesses that regenerate
// their fleet (two benchmark runs in one process) just work.
func Register(spec Spec) (*Domain, error) {
	d, err := Generate(spec)
	if err != nil {
		return nil, err
	}
	domains.RegisterIfAbsent(d.Bundle())
	return d, nil
}

// Event builds one deterministic resource event for the domain: name drawn
// from the event vocabulary by index, and a sequence attribute.
func (d *Domain) Event(i int) broker.Event {
	return broker.Event{
		Name:  d.eventNames[i%len(d.eventNames)],
		Attrs: map[string]any{"seq": i},
	}
}
