// Package domains is the registry of installable domain bundles — the
// paper's domain-specific platforms (§IV) packaged as named, uniformly
// constructible units. Each concrete domain (cml, mgrid, smartspace,
// csense) registers a Bundle in its init, so hosts that provision
// platforms dynamically — mddsm-serve's tenant table, the CLIs — resolve
// them by name instead of hard-coding one switch per domain.
//
// The package also unifies the checkpoint/restore entry points: where
// cml.Restore and mgrid.Restore used to copy-paste the
// assemble→core.Restore→reseed dance, domains.RestoreSnapshot(bundle,
// snapshot, cfg) is the single registry-driven path (domains.New is its
// construction twin, domains.Decode checks checkpoint bytes against the
// bundle's definition, and domains.Restore is the two together). Import
// github.com/mddsm/mddsm/internal/domains/all for the side effect of
// registering every built-in bundle.
package domains

import (
	"fmt"
	"sort"
	"sync"

	"github.com/mddsm/mddsm/internal/core"
	"github.com/mddsm/mddsm/internal/fault"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/runtime"
)

// Config carries everything a bundle needs to build (or restore) one
// platform instance: the runtime tuning profile plus the cross-cutting
// observability, fault-injection and resilience hooks. cml.New, mgrid.New
// and smartspace.New take it too, and run their bundle's assembly.
type Config struct {
	// Runtime is the platform tuning profile (zero fields mean the
	// runtime defaults; see runtime.Defaults).
	Runtime runtime.Config
	// Obs instruments every layer of the instance (nil disables).
	Obs *obs.Obs
	// Injector arms the instance's fault points (nil disables).
	Injector *fault.Injector
	// Resilience configures retry/timeout/circuit-breaking across the
	// instance's layers (zero disables).
	Resilience fault.Resilience
}

// Instance is one provisioned domain platform plus the simulated shell it
// is wired to (service, plant, hub, fleet — whatever the domain drives).
type Instance struct {
	// Bundle names the bundle this instance came from.
	Bundle string
	// Platform is the live MD-DSM platform (not started; call
	// Platform.Start as after runtime.Build).
	Platform *runtime.Platform
	// Trace renders the instance's resource trace (never nil; bundles
	// without a meaningful trace return "").
	Trace func() string

	// shared is the bundle's checked definition, which every instance of
	// the bundle shares; bindings are this instance's own adapters, clock
	// and hooks; attach binds the built platform back into the shell's
	// feedback loop.
	shared   *core.Checked
	bindings core.Bindings
	attach   func(p *runtime.Platform, restored bool)
}

// Bundle is one registered domain: a name, a one-line description, the
// bundle's shared, checked definition and the assembly function producing
// a fresh shell around it.
type Bundle struct {
	// Name keys the bundle in the registry ("cml", "mgrid", ...).
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Checked returns the bundle's checked definition, built once and
	// shared by every instance: DSML, DSK, and the compiled plan of its
	// middleware model.
	Checked func() (*core.Checked, error)
	// Assemble builds a fresh instance shell with its own bindings,
	// Platform left nil (New and Restore fill it through core).
	Assemble func(cfg Config) (*Instance, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Bundle{}
)

// Register installs a bundle; it panics on a duplicate or empty name
// (registration is an init-time programming act, not a runtime input).
func Register(b Bundle) {
	if b.Name == "" || b.Checked == nil || b.Assemble == nil {
		panic("domains: Register needs a name, a Checked and an Assemble func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name]; dup {
		panic(fmt.Sprintf("domains: bundle %q registered twice", b.Name))
	}
	registry[b.Name] = b
}

// RegisterIfAbsent installs a bundle unless one with the same name is
// already registered, reporting whether the registration took effect. It
// is the entry point for bundles produced at runtime — synthetic domains
// from internal/domgen register through it so re-generating the same
// deterministic bundle (same spec, same seed) in one process is a no-op
// instead of the panic Register reserves for programming errors.
func RegisterIfAbsent(b Bundle) bool {
	if b.Name == "" || b.Checked == nil || b.Assemble == nil {
		panic("domains: RegisterIfAbsent needs a name, a Checked and an Assemble func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name]; dup {
		return false
	}
	registry[b.Name] = b
	return true
}

// Lookup resolves a registered bundle by name.
func Lookup(name string) (Bundle, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// Names lists the registered bundles, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// lookup resolves a registered bundle and its checked definition.
func lookup(bundle string) (Bundle, *core.Checked, error) {
	b, ok := Lookup(bundle)
	if !ok {
		return Bundle{}, nil, fmt.Errorf("domains: unknown bundle %q (registered: %v)", bundle, Names())
	}
	c, err := b.Checked()
	if err != nil {
		return Bundle{}, nil, fmt.Errorf("domains: check %s: %w", bundle, err)
	}
	return b, c, nil
}

// assemble resolves the bundle and builds its shell around the bundle's
// checked definition, stamping the bundle name into the instance.
func assemble(bundle string, cfg Config) (*Instance, error) {
	b, c, err := lookup(bundle)
	if err != nil {
		return nil, err
	}
	inst, err := b.Assemble(cfg)
	if err != nil {
		return nil, fmt.Errorf("domains: assemble %s: %w", bundle, err)
	}
	inst.Bundle = bundle
	inst.shared = c
	if inst.Trace == nil {
		inst.Trace = func() string { return "" }
	}
	return inst, nil
}

// New provisions a fresh platform instance of the named bundle. It
// instantiates the bundle's compiled plan and walks no model.
func New(bundle string, cfg Config) (*Instance, error) {
	inst, err := assemble(bundle, cfg)
	if err != nil {
		return nil, err
	}
	p, err := core.Build(inst.shared, inst.bindings, cfg.Runtime)
	if err != nil {
		return nil, fmt.Errorf("domains: build %s: %w", bundle, err)
	}
	inst.bind(p, false)
	return inst, nil
}

// Decode checks runtime.Checkpoint bytes of the named bundle where they
// enter the process (core.Decode): the snapshot's middleware model must
// conform to the middleware metamodel and compile, and its application
// model must conform to the bundle's DSML. The returned snapshot restores
// through RestoreSnapshot without walking either model again.
func Decode(bundle string, snapshot []byte) (*runtime.Snapshot, error) {
	_, c, err := lookup(bundle)
	if err != nil {
		return nil, err
	}
	snap, err := core.Decode(c, snapshot)
	if err != nil {
		return nil, fmt.Errorf("domains: restore %s: %w", bundle, err)
	}
	return snap, nil
}

// Restore rebuilds an instance of the named bundle from
// runtime.Checkpoint bytes: Decode, then RestoreSnapshot. The restored
// platform is not started.
func Restore(bundle string, snapshot []byte, cfg Config) (*Instance, error) {
	snap, err := Decode(bundle, snapshot)
	if err != nil {
		return nil, err
	}
	return RestoreSnapshot(bundle, snap, cfg)
}

// RestoreSnapshot rebuilds an instance of the named bundle from a
// runtime.Snapshot (captured from an instance of the bundle, or returned
// by Decode): the bundle's shell is assembled fresh, the snapshot's plan
// and layer state are reinstated through core.Restore — the restored
// platform shares the snapshot's plan and committed model, and walks
// neither — and the shell's feedback loop is re-attached. It replaces the
// per-domain Restore copies (cml.Restore, mgrid.Restore). The restored
// platform is not started.
func RestoreSnapshot(bundle string, snap *runtime.Snapshot, cfg Config) (*Instance, error) {
	inst, err := assemble(bundle, cfg)
	if err != nil {
		return nil, err
	}
	p, err := core.Restore(inst.shared, inst.bindings, snap, cfg.Runtime)
	if err != nil {
		return nil, fmt.Errorf("domains: restore %s: %w", bundle, err)
	}
	inst.bind(p, true)
	return inst, nil
}

// bind installs the built platform into the instance and runs the
// bundle's attach hook (shell feedback wiring, context seeding).
func (inst *Instance) bind(p *runtime.Platform, restored bool) {
	inst.Platform = p
	if inst.attach != nil {
		inst.attach(p, restored)
	}
}

// NewInstance builds the Instance a Bundle.Assemble returns: a shell
// bound to b, which New and Restore put around the bundle's checked
// definition. It lives here (rather than exposing the struct fields) so
// the bindings and attach hook stay write-once.
func NewInstance(b core.Bindings, trace func() string, attach func(p *runtime.Platform, restored bool)) *Instance {
	return &Instance{bindings: b, Trace: trace, attach: attach}
}

// Close stops the instance's platform (drain included). It is safe on an
// instance whose platform was never started.
func (inst *Instance) Close() {
	if inst.Platform != nil {
		inst.Platform.Stop()
	}
}
