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
// A Definition pairs the two and Build turns it into a running platform,
// after cross-checking their conformance: the middleware model must be a
// valid instance of the middleware metamodel, the DSK must be internally
// consistent, and the synthesis semantics must speak about classes and
// features that actually exist in the application DSML.
package core

import (
	"fmt"
	"strings"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/script"
	"github.com/mddsm/mddsm/internal/simtime"
)

// DSK is the domain-specific knowledge bundle for one application domain.
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
	// Adapters holds resource adapters by name.
	Adapters map[string]broker.Adapter
}

// Definition is a complete MD-DSM platform description.
type Definition struct {
	// Name labels the definition in error messages.
	Name string
	// DSML is the application-level domain-specific modeling language.
	DSML *metamodel.Metamodel
	// Middleware is the middleware model (an instance of mwmeta.MM).
	Middleware *metamodel.Model
	// DSK supplies the domain semantics.
	DSK DSK
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
//   - the middleware model conforms to the middleware metamodel;
//   - the DSML and taxonomy are internally valid;
//   - every procedure's classifiers resolve (by building the repository);
//   - every LTS validates, and every class/feature its event patterns
//     mention exists in the DSML (middleware-model ↔ DSML conformance,
//     the assurance MD-DSM calls for in §IX).
func (d *Definition) Validate() error {
	if d.Middleware == nil {
		return fmt.Errorf("definition %s: nil middleware model", d.Name)
	}
	// Validation normalises in place; check a copy so the definition's
	// model is left as authored.
	if err := d.Middleware.Clone().Validate(mwmeta.MM()); err != nil {
		return fmt.Errorf("definition %s: middleware model: %w", d.Name, err)
	}
	if d.DSML != nil {
		if err := d.DSML.Validate(); err != nil {
			return fmt.Errorf("definition %s: DSML: %w", d.Name, err)
		}
	}
	if d.DSK.Taxonomy != nil {
		if err := d.DSK.Taxonomy.Validate(); err != nil {
			return fmt.Errorf("definition %s: taxonomy: %w", d.Name, err)
		}
	}
	if _, err := d.buildRepository(); err != nil {
		return fmt.Errorf("definition %s: %w", d.Name, err)
	}
	for name, l := range d.DSK.LTSes {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("definition %s: lts %s: %w", d.Name, name, err)
		}
		if d.DSML != nil {
			if err := checkLTSConformance(l, d.DSML); err != nil {
				return fmt.Errorf("definition %s: lts %s: %w", d.Name, name, err)
			}
		}
	}
	return nil
}

// buildRepository assembles the Controller's procedure repository from the
// DSK. It returns nil (no repository) when the DSK declares no procedures.
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
	return repo, nil
}

// Build validates the definition and instantiates the platform through the
// generic runtime's component factory.
func Build(def Definition, opts ...runtime.Option) (*runtime.Platform, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	repo, err := def.buildRepository()
	if err != nil {
		return nil, fmt.Errorf("definition %s: %w", def.Name, err)
	}
	p, err := runtime.Build(def.Middleware, runtime.Deps{
		DSML:       def.DSML,
		LTSes:      def.DSK.LTSes,
		Adapters:   def.DSK.Adapters,
		Repository: repo,
		Scripts:    def.DSK.Scripts,
		Clock:      def.Clock,
		Tracer:     def.Obs.TracerOf(),
		Metrics:    def.Obs.MetricsOf(),
		Injector:   def.Injector,
		Resilience: def.Resilience,
	}, opts...)
	if err != nil {
		return nil, fmt.Errorf("definition %s: %w", def.Name, err)
	}
	return p, nil
}

// Restore validates the definition and rebuilds a platform from a
// runtime.Checkpoint snapshot, binding it to the definition's DSK. The
// snapshot's middleware model replaces def.Middleware as the platform
// structure (it is the model the checkpointed platform actually ran), but
// the definition is still validated in full so the DSK the restored
// platform binds to is known-consistent.
func Restore(def Definition, snapshot []byte, opts ...runtime.Option) (*runtime.Platform, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	repo, err := def.buildRepository()
	if err != nil {
		return nil, fmt.Errorf("definition %s: %w", def.Name, err)
	}
	p, err := runtime.Restore(snapshot, runtime.Deps{
		DSML:       def.DSML,
		LTSes:      def.DSK.LTSes,
		Adapters:   def.DSK.Adapters,
		Repository: repo,
		Scripts:    def.DSK.Scripts,
		Clock:      def.Clock,
		Tracer:     def.Obs.TracerOf(),
		Metrics:    def.Obs.MetricsOf(),
		Injector:   def.Injector,
		Resilience: def.Resilience,
	}, opts...)
	if err != nil {
		return nil, fmt.Errorf("definition %s: %w", def.Name, err)
	}
	return p, nil
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
