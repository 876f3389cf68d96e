// Package core is the MD-DSM integration layer — the paper's primary
// contribution (§VI). It combines the two foundational principles:
//
//  1. model-based construction of middleware (§V-A): the structure of the
//     platform is described by a middleware model conforming to the common
//     middleware metamodel (package mwmeta), executed by the generic
//     runtime (package runtime); and
//  2. separation of domain knowledge from the model of execution (§V-B):
//     the operational semantics of the application DSML is supplied as a
//     DSK bundle — classifier taxonomy, procedures with execution units,
//     synthesis transition systems, installed scripts and resource
//     adapters — that the generated middleware interprets.
//
// A Definition pairs the two, and no platform runs it before their
// conformance is cross-checked: the middleware model must be a valid
// instance of the middleware metamodel, the DSK must be internally
// consistent, and the synthesis semantics must speak about classes and
// features that actually exist in the application DSML. Check runs these
// checks once per definition, compiles the middleware model into the
// runtime's layer plan, and returns the definition in checked form, which
// is immutable and shared by every platform of the domain. Build and
// Restore instantiate that plan (or a snapshot's) bound to one platform's
// own resources (Bindings), and walk and parse nothing.
package core

import (
	"fmt"
	"strings"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/simtime"
)

// DSK is the domain-specific knowledge bundle for one application domain.
// The resource adapters that complete it in the paper bind to one
// platform's own resources, so they are given per platform, in Bindings.
type DSK struct {
	// Taxonomy is the domain's classifier hierarchy (required when
	// Procedures is non-empty).
	Taxonomy *dsc.Taxonomy
	// Procedures are the classified operations with their execution
	// units; they populate the Controller's repository.
	Procedures []*registry.Procedure
	// LTSes holds the synthesis semantics by name.
	LTSes map[string]*lts.LTS
	// Scripts holds installed scripts by name.
	Scripts map[string]*script.Script
}

// Definition is a complete MD-DSM platform description. It describes a
// domain, not one platform, so any number of platforms are built from it.
type Definition struct {
	// Name labels the definition in error messages.
	Name string
	// DSML is the application-level domain-specific modeling language.
	DSML *metamodel.Metamodel
	// Middleware is the middleware model (an instance of mwmeta.MM).
	Middleware *metamodel.Model
	// DSK supplies the domain semantics.
	DSK DSK
}

// Bindings is what one platform owns besides its definition: the resource
// adapters over its own resources, its clock, and its observability,
// fault-injection and resilience hooks.
type Bindings struct {
	// Adapters holds resource adapters by name.
	Adapters map[string]broker.Adapter
	// Clock charges virtual time; nil disables time accounting.
	Clock simtime.Clock
	// Obs observes every layer of the built platform (tracing + metrics);
	// nil disables observability.
	Obs *obs.Obs
	// Injector injects faults at the platform's named fault points; nil
	// (the default) disables injection.
	Injector *fault.Injector
	// Resilience configures retry, per-step timeout, and circuit-breaking
	// for the built platform; the zero value disables all three.
	Resilience fault.Resilience
}

// Validate cross-checks the definition without instantiating anything:
//
//   - the middleware model conforms to the middleware metamodel and
//     compiles (its layers stack, its guards and conditions parse);
//   - the DSML and taxonomy are internally valid;
//   - every procedure's classifiers resolve (by building the repository);
//   - every LTS validates, and every class/feature its event patterns
//     mention exists in the DSML (middleware-model ↔ DSML conformance,
//     the assurance MD-DSM calls for in §IX).
func (d *Definition) Validate() error {
	if err := d.checkMiddleware(); err != nil {
		return err
	}
	if _, err := runtime.Compile(d.Middleware); err != nil {
		return fmt.Errorf("definition %s: middleware model: %w", d.Name, err)
	}
	_, err := d.checkDSK()
	return err
}

// checkMiddleware refuses a definition without a middleware model.
func (d *Definition) checkMiddleware() error {
	if d.Middleware == nil {
		return fmt.Errorf("definition %s: nil middleware model", d.Name)
	}
	return nil
}

// checkDSK runs Validate's checks of the DSML and the DSK and returns the
// Controller's procedure repository it builds along the way (nil when the
// DSK declares no procedures).
func (d *Definition) checkDSK() (*registry.Repository, error) {
	if d.DSML != nil {
		// Compiled validates the DSML once per version and memoises the
		// verdict, which every Synthesis layer built over it then reuses.
		if _, err := d.DSML.Compiled(); err != nil {
			return nil, fmt.Errorf("definition %s: DSML: %w", d.Name, err)
		}
	}
	if d.DSK.Taxonomy != nil {
		if err := d.DSK.Taxonomy.Validate(); err != nil {
			return nil, fmt.Errorf("definition %s: taxonomy: %w", d.Name, err)
		}
	}
	repo, err := d.buildRepository()
	if err != nil {
		return nil, fmt.Errorf("definition %s: %w", d.Name, err)
	}
	for name, l := range d.DSK.LTSes {
		if err := l.Validate(); err != nil {
			return nil, fmt.Errorf("definition %s: lts %s: %w", d.Name, name, err)
		}
		if d.DSML != nil {
			if err := checkLTSConformance(l, d.DSML); err != nil {
				return nil, fmt.Errorf("definition %s: lts %s: %w", d.Name, name, err)
			}
		}
	}
	return repo, nil
}

// buildRepository assembles the Controller's procedure repository from the
// DSK and seals it. It returns nil (no repository) when the DSK declares
// no procedures.
func (d *Definition) buildRepository() (*registry.Repository, error) {
	if len(d.DSK.Procedures) == 0 {
		return nil, nil
	}
	if d.DSK.Taxonomy == nil {
		return nil, fmt.Errorf("procedures declared but no taxonomy")
	}
	repo := registry.NewRepository(d.DSK.Taxonomy)
	for _, p := range d.DSK.Procedures {
		if err := repo.Add(p); err != nil {
			return nil, err
		}
	}
	repo.Seal()
	return repo, nil
}

// Checked is a definition that passed Check, together with the compiled
// plan of its middleware model and the procedure repository the check
// built. It is immutable, so every platform of the domain shares it —
// DSML, middleware model and plan, taxonomy, procedures, repository and
// LTS definitions — while each platform keeps its own layer state, LTS
// instance, intent cache, event pump and ledgers.
type Checked struct {
	def  Definition
	plan *runtime.Plan
	repo *registry.Repository
}

// Check runs Validate's checks once and returns the definition in checked
// form: it conforms the middleware model to the middleware metamodel and
// compiles it into the layer plan every platform of the definition
// instantiates, checks the DSML and the DSK, and seals the taxonomy and
// repository against change. The definition's models, maps, procedures
// and LTSes must not be modified afterwards.
func Check(def Definition) (*Checked, error) {
	if err := def.checkMiddleware(); err != nil {
		return nil, err
	}
	plan, err := runtime.Compile(def.Middleware)
	if err != nil {
		return nil, fmt.Errorf("definition %s: middleware model: %w", def.Name, err)
	}
	repo, err := def.checkDSK()
	if err != nil {
		return nil, err
	}
	if def.DSK.Taxonomy != nil {
		def.DSK.Taxonomy.Seal()
	}
	return &Checked{def: def, plan: plan, repo: repo}, nil
}

// Build instantiates a platform of the checked definition from its
// compiled plan, bound to b and tuned by cfg. Every platform of the
// definition shares the plan and the middleware model in it; Build walks
// and parses neither.
func Build(c *Checked, b Bindings, cfg runtime.Config) (*runtime.Platform, error) {
	p, err := runtime.Instantiate(c.plan, c.deps(b), cfg)
	if err != nil {
		return nil, fmt.Errorf("definition %s: %w", c.def.Name, err)
	}
	return p, nil
}

// Decode parses Checkpoint bytes of a platform of the checked definition
// and checks them where they enter the process: runtime.DecodeSnapshot
// conforms the snapshot's middleware model to the middleware metamodel
// and compiles it, and conforms its application model to the
// definition's DSML, one walk each.
func Decode(c *Checked, data []byte) (*runtime.Snapshot, error) {
	snap, err := runtime.DecodeSnapshot(data, c.def.DSML)
	if err != nil {
		return nil, fmt.Errorf("definition %s: %w", c.def.Name, err)
	}
	return snap, nil
}

// Restore rebuilds a platform of the checked definition from a
// runtime.Snapshot (decoded by Decode or captured in process), bound to
// b. The snapshot's plan replaces the definition's as the platform
// structure (it is the model the checkpointed platform actually ran;
// captured from a platform of the definition, it is the definition's
// plan itself). Both of the snapshot's models were checked when it was
// captured or decoded, so the restore walks neither: the restored
// platform shares the snapshot's plan and committed model.
func Restore(c *Checked, b Bindings, snap *runtime.Snapshot, cfg runtime.Config) (*runtime.Platform, error) {
	p, err := runtime.RestoreSnapshot(snap, c.deps(b), cfg)
	if err != nil {
		return nil, fmt.Errorf("definition %s: %w", c.def.Name, err)
	}
	return p, nil
}

// deps binds the checked DSML and DSK, with one platform's bindings, into
// the runtime's dependency bundle.
func (c *Checked) deps(b Bindings) runtime.Deps {
	return runtime.Deps{
		DSML:       c.def.DSML,
		LTSes:      c.def.DSK.LTSes,
		Adapters:   b.Adapters,
		Repository: c.repo,
		Scripts:    c.def.DSK.Scripts,
		Clock:      b.Clock,
		Tracer:     b.Obs.TracerOf(),
		Metrics:    b.Obs.MetricsOf(),
		Injector:   b.Injector,
		Resilience: b.Resilience,
	}
}

// checkLTSConformance verifies that the model-change event patterns of an
// LTS refer to classes and features the DSML actually declares, so that a
// middleware model cannot silently encode semantics for a different
// language than the one it claims to support.
func checkLTSConformance(l *lts.LTS, dsml *metamodel.Metamodel) error {
	for _, pattern := range l.EventPatterns() {
		kind, rest, found := strings.Cut(pattern, ":")
		if !found || strings.Contains(rest, "*") || pattern == "*" {
			continue // wildcard or non-model event
		}
		switch kind {
		case "add-object", "remove-object":
			if dsml.Class(rest) == nil {
				return fmt.Errorf("event %q: class %q not in DSML %s", pattern, rest, dsml.Name)
			}
		case "set-attr", "unset-attr":
			class, feat, ok := strings.Cut(rest, ".")
			if !ok {
				return fmt.Errorf("event %q: want <Class>.<attribute>", pattern)
			}
			if dsml.Class(class) == nil {
				return fmt.Errorf("event %q: class %q not in DSML %s", pattern, class, dsml.Name)
			}
			if _, found := dsml.FindAttribute(class, feat); !found {
				return fmt.Errorf("event %q: class %q has no attribute %q", pattern, class, feat)
			}
		case "add-ref", "remove-ref":
			class, feat, ok := strings.Cut(rest, ".")
			if !ok {
				return fmt.Errorf("event %q: want <Class>.<reference>", pattern)
			}
			if dsml.Class(class) == nil {
				return fmt.Errorf("event %q: class %q not in DSML %s", pattern, class, dsml.Name)
			}
			if _, found := dsml.FindReference(class, feat); !found {
				return fmt.Errorf("event %q: class %q has no reference %q", pattern, class, feat)
			}
		case "event":
			// Upward events are free-form.
		default:
			// Unknown kinds are tolerated: domains may define private
			// event vocabularies fed through Synthesis.OnEvent.
		}
	}
	return nil
}
