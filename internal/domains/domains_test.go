package domains_test

import (
	"sort"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/domains"
	_ "github.com/mddsm/mddsm/internal/domains/all"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/domains/csense"
	"github.com/mddsm/mddsm/internal/domains/mgrid"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
	"github.com/mddsm/mddsm/internal/domgen"
	"github.com/mddsm/mddsm/internal/dsc"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/obs"
	"github.com/mddsm/mddsm/internal/registry"
	"github.com/mddsm/mddsm/internal/runtime"
	"github.com/mddsm/mddsm/internal/ui"
)

func TestRegistryHasBuiltinBundles(t *testing.T) {
	// Contains-check rather than exact equality: processes may register
	// synthetic bundles (internal/domgen) alongside the built-ins.
	want := []string{"cml", "csense", "mgrid", "smartspace"}
	got := domains.Names()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Names() = %v, not sorted", got)
	}
	for _, name := range want {
		b, ok := domains.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) missing", name)
		}
		if b.Doc == "" {
			t.Errorf("bundle %q has no doc line", name)
		}
	}
}

func TestNewRejectsUnknownBundle(t *testing.T) {
	if _, err := domains.New("nope", domains.Config{}); err == nil {
		t.Fatal("New(nope) succeeded, want error")
	}
	if _, err := domains.Restore("nope", nil, domains.Config{}); err == nil {
		t.Fatal("Restore(nope) succeeded, want error")
	}
}

// TestEveryBundleBuilds provisions each registered bundle fresh and checks
// the instance invariants hold: live platform, non-nil trace.
func TestEveryBundleBuilds(t *testing.T) {
	for _, name := range domains.Names() {
		inst, err := domains.New(name, domains.Config{})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if inst.Platform == nil {
			t.Fatalf("New(%s): nil platform", name)
		}
		if inst.Bundle != name {
			t.Errorf("New(%s): Bundle = %q", name, inst.Bundle)
		}
		_ = inst.Trace() // must not panic
		inst.Close()
	}
}

// TestNewIsTheBundlePath: every platform of a bundle runs on the bundle's
// one checked definition. Two tenants provisioned by domains.New, a
// domains.RestoreSnapshot of one of them and the domain package's own New
// (where it has one) hold the same DSML, taxonomy, procedure repository
// and LTS definition, while each keeps its own shell and adapters, LTS
// instance and obs bundle. A package's New also runs the assembly its
// bundle runs: built with one Config, the two synthesise the same script
// from the same model, drive the same resource trace and capture
// equivalent snapshots.
func TestNewIsTheBundlePath(t *testing.T) {
	syn, err := domgen.Register(domgen.Spec{Name: "shared-loop", Seed: 11, Classes: 3, Depth: 1,
		AttrsPerClass: 2, Enums: 1, EnumLiterals: 2, LTSStates: 3, LTSShape: domgen.ShapeLoop,
		LTSDensity: 0.5, EventTypes: 2, InitialObjects: 6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := domains.Config{Runtime: runtime.Config{PumpQueue: 32, DLQCapacity: runtime.DLQDisabled}}
	type built struct {
		p     *runtime.Platform
		trace func() string
	}
	uiModel := func(draft func(d *ui.Draft)) func(p *runtime.Platform) *metamodel.Model {
		return func(p *runtime.Platform) *metamodel.Model {
			d := p.UI.NewDraft()
			draft(d)
			return d.Model()
		}
	}
	for _, c := range []struct {
		bundle string
		newVM  func() (built, error) // nil: the package has no New
		// sameShell: newVM runs the bundle's own assembly with cfg (csense.New
		// builds a whole deployment around the provider instead).
		sameShell  bool
		model      func(p *runtime.Platform) *metamodel.Model
		traced     bool // whether submitting the model reaches the resource trace
		procedures bool // whether the bundle declares procedures
	}{
		{"cml", func() (built, error) {
			vm, err := cml.New(cfg)
			if err != nil {
				return built{}, err
			}
			return built{vm.Platform, vm.Service.Trace().String}, nil
		}, true, uiModel(func(d *ui.Draft) {
			d.MustAdd("alice", "Person").SetAttr("name", "Alice")
			d.MustAdd("bob", "Person").SetAttr("name", "Bob")
			d.MustAdd("s1", "Session").
				SetRef("participants", "alice", "bob").
				SetRef("streams", "a1")
			d.MustAdd("a1", "Stream").
				SetAttr("media", "audio").
				SetAttr("bandwidth", 64).
				SetAttr("session", "s1")
		}), true, true},
		{"mgrid", func() (built, error) {
			vm, err := mgrid.New(cfg)
			if err != nil {
				return built{}, err
			}
			return built{vm.Platform, vm.Plant.Trace().String}, nil
		}, true, uiModel(func(d *ui.Draft) {
			d.MustAdd("home", "Microgrid").
				SetAttr("name", "Casa Verde").
				SetRef("devices", "solar", "load").
				SetRef("policies", "reserve")
			d.MustAdd("solar", "DeviceCfg").SetAttr("kind", "solar").SetAttr("capacity", 5).SetAttr("output", 3)
			d.MustAdd("load", "DeviceCfg").SetAttr("kind", "load").SetAttr("capacity", 8).SetAttr("output", -5)
			d.MustAdd("reserve", "EnergyPolicy").SetAttr("name", "keep-reserve").SetAttr("reserve", 0.3)
		}), true, true},
		{"smartspace", func() (built, error) {
			vm, err := smartspace.New(cfg)
			if err != nil {
				return built{}, err
			}
			return built{vm.Platform, vm.Hub.Space().Trace().String}, nil
		}, true, uiModel(func(d *ui.Draft) {
			d.MustAdd("ana", "User").SetAttr("name", "Ana")
			d.MustAdd("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
			d.MustAdd("welcome", "Rule").
				SetAttr("onEvent", "objectEntered").
				SetAttr("subject", "badge-ana").
				SetAttr("targetObject", "lamp1").
				SetAttr("prop", "on").
				SetAttr("value", "true")
		}), false, false},
		{"csense", func() (built, error) {
			vm, err := csense.New(1)
			if err != nil {
				return built{}, err
			}
			return built{vm.Provider, vm.Fleet.Trace().String}, nil
		}, false, func(*runtime.Platform) *metamodel.Model {
			m := metamodel.NewModel(csense.MetamodelName)
			m.NewObject("heat", "Query").SetAttr("sensor", "temperature").SetAttr("aggregate", "max")
			return m
		}, false, false},
		{syn.Name, nil, false, func(*runtime.Platform) *metamodel.Model { return syn.Initial() }, true, false},
	} {
		t.Run(c.bundle, func(t *testing.T) {
			tenant := func() *domains.Instance {
				cfg := cfg
				cfg.Obs = obs.New()
				inst, err := domains.New(c.bundle, cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(inst.Close)
				return inst
			}
			a, b := tenant(), tenant()
			rcfg := cfg
			rcfg.Obs = obs.New()
			restored, err := domains.RestoreSnapshot(c.bundle, a.Platform.Capture(), rcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			platforms := []*runtime.Platform{a.Platform, b.Platform, restored.Platform}
			var direct built
			if c.newVM != nil {
				if direct, err = c.newVM(); err != nil {
					t.Fatal(err)
				}
				defer direct.p.Stop()
				platforms = append(platforms, direct.p)
			}

			// Shared: the bundle's checked definition.
			repo := a.Platform.Controller.Repository()
			if (repo != nil) != c.procedures {
				t.Fatalf("procedure repository %v, want one: %v", repo, c.procedures)
			}
			for i, p := range platforms[1:] {
				if p.Synthesis.DSML() != a.Platform.Synthesis.DSML() {
					t.Errorf("platform %d runs a different DSML instance", i+1)
				}
				if p.Synthesis.LTS() != a.Platform.Synthesis.LTS() {
					t.Errorf("platform %d runs a different LTS definition", i+1)
				}
				if p.Controller.Repository() != repo {
					t.Errorf("platform %d holds a different procedure repository", i+1)
				} else if repo != nil && p.Controller.Repository().Taxonomy() != repo.Taxonomy() {
					t.Errorf("platform %d holds a different taxonomy", i+1)
				}
			}

			// Per tenant: obs bundles, LTS instances and shells.
			tracers := map[*obs.Tracer]bool{}
			for _, p := range platforms[:3] {
				tr, _ := p.Obs()
				tracers[tr] = true
			}
			if len(tracers) != 3 {
				t.Errorf("3 tenants instrument %d distinct obs bundles", len(tracers))
			}
			m := c.model(a.Platform)
			var scripts []string
			for _, p := range []*runtime.Platform{a.Platform, b.Platform} {
				s, err := p.SubmitModel(m)
				if err != nil {
					t.Fatal(err)
				}
				scripts = append(scripts, s.String())
			}
			if scripts[0] != scripts[1] {
				t.Errorf("tenants synthesise different scripts:\n%s\n%s", scripts[0], scripts[1])
			}
			// Each tenant drove its own shell: a shared one would have
			// refused the second tenant's resources or traced them twice.
			if at, bt := a.Trace(), b.Trace(); at != bt {
				t.Errorf("resource traces differ:\n a: %s\n b: %s", at, bt)
			} else if c.traced && at == "" {
				t.Error("the model drove no resource operation")
			}
			if got := restored.Platform.Synthesis.Seq(); got != 0 {
				t.Errorf("restored tenant's synthesis moved with its source: seq %d", got)
			}
			if got, want := restored.Platform.Synthesis.State(), restored.Platform.Synthesis.LTS().Initial; got != want {
				t.Errorf("restored tenant's LTS instance in state %q, want %q", got, want)
			}

			if !c.sameShell {
				return
			}
			if a, b := direct.p.Config(), a.Platform.Config(); a != b {
				t.Errorf("runtime config: New %+v, bundle %+v", a, b)
			}
			s, err := direct.p.SubmitModel(m)
			if err != nil {
				t.Fatal(err)
			}
			if s.String() != scripts[0] {
				t.Errorf("scripts differ:\n New: %s\nbundle: %s", s, scripts[0])
			}
			if dt, at := direct.trace(), a.Trace(); dt != at {
				t.Errorf("resource traces differ:\n New: %s\nbundle: %s", dt, at)
			}
			da, err := direct.p.Capture().Encode()
			if err != nil {
				t.Fatal(err)
			}
			db, err := a.Platform.Capture().Encode()
			if err != nil {
				t.Fatal(err)
			}
			if same, err := runtime.SnapshotsEquivalent(da, db); err != nil || !same {
				t.Errorf("snapshots not equivalent (err %v):\n New: %s\nbundle: %s", err, da, db)
			}
		})
	}
}

// TestSharedDefinitionRefusesMutation: a bundle's taxonomy and procedure
// repository are shared by all its tenants, so both refuse change.
func TestSharedDefinitionRefusesMutation(t *testing.T) {
	inst, err := domains.New("cml", domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	repo := inst.Platform.Controller.Repository()
	n := repo.Len()
	if err := repo.Remove("connectBasic"); err == nil {
		t.Error("Remove on the shared repository succeeded")
	}
	if err := repo.Add(&registry.Procedure{ID: "extra", ClassifiedBy: "comm.codec", Reliability: 1}); err == nil {
		t.Error("Add on the shared repository succeeded")
	}
	if err := repo.Taxonomy().Add(&dsc.DSC{ID: "comm.extra", Category: dsc.Operation}); err == nil {
		t.Error("Add on the shared taxonomy succeeded")
	}
	if repo.Len() != n || repo.Get("connectBasic") == nil || repo.Taxonomy().Get("comm.extra") != nil {
		t.Error("a refused mutation changed the shared definition")
	}
}

// cmlSession drafts the canonical two-party audio session model against a
// cml instance.
func cmlSession(t *testing.T, inst *domains.Instance) *metamodel.Model {
	t.Helper()
	d := inst.Platform.UI.NewDraft()
	d.MustAdd("alice", "Person").SetAttr("name", "Alice")
	d.MustAdd("bob", "Person").SetAttr("name", "Bob")
	d.MustAdd("s1", "Session").
		SetRef("participants", "alice", "bob").
		SetRef("streams", "a1")
	d.MustAdd("a1", "Stream").
		SetAttr("media", "audio").
		SetAttr("bandwidth", 64).
		SetAttr("session", "s1")
	return d.Model()
}

// TestRestoreRoundtripDiffEqual is the unified restore path's contract: a
// platform checkpointed, restored through domains.Restore and checkpointed
// again produces equivalent snapshots (modulo the live generator counters
// runtime.SnapshotsEquivalent documents).
func TestRestoreRoundtripDiffEqual(t *testing.T) {
	inst, err := domains.New("cml", domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Platform.SubmitModel(cmlSession(t, inst)); err != nil {
		t.Fatal(err)
	}
	inst.Platform.Broker.Context().Set("securityLevel", 2.0)

	snap, err := inst.Platform.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := domains.Restore("cml", snap, domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	snap2, err := restored.Platform.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	same, err := runtime.SnapshotsEquivalent(snap, snap2)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatalf("restore roundtrip drifted:\n first=%s\nsecond=%s", snap, snap2)
	}
	if got := restored.Platform.Synthesis.State(); got != inst.Platform.Synthesis.State() {
		t.Errorf("restored LTS state = %q, want %q", got, inst.Platform.Synthesis.State())
	}
}

// TestRestoreReattachesShell checks the attach hook runs on restore: a
// restored mgrid instance keeps delivering shell events into the platform
// and reseeds its default context.
func TestRestoreReattachesShell(t *testing.T) {
	inst, err := domains.New("mgrid", domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	snap, err := inst.Platform.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := domains.Restore("mgrid", snap, domains.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if _, ok := restored.Platform.Broker.Context().Get("batteryCharge"); !ok {
		t.Error("restored mgrid lost its batteryCharge context seed")
	}
	if err := restored.Platform.DeliverEvent(broker.Event{Name: "telemetry", Attrs: map[string]any{}}); err != nil {
		t.Errorf("restored platform rejects events: %v", err)
	}
}

// walks reports how many conformance walks the process has run so far,
// over every dispatch path of metamodel.Model.Validate and Conform.
func walks() int64 {
	fast, interpreted, _, _ := metamodel.ValidationStats()
	return fast + interpreted
}

// TestRegistryWalkCounts: a bundle's middleware model is conformed and
// compiled once, by its checked definition, so provisioning a platform
// walks no model. Restoring a captured snapshot walks none either: its
// plan and committed model were checked when they were built and
// committed, and the restored platform shares both. Only bytes are
// walked, where they enter the process: decoding conforms the snapshot's
// middleware and application models, once each.
func TestRegistryWalkCounts(t *testing.T) {
	d, err := domgen.Register(domgen.Spec{Name: "walk-loop", Seed: 73, Classes: 4, Depth: 2,
		AttrsPerClass: 3, Enums: 1, EnumLiterals: 2, LTSStates: 3, LTSShape: domgen.ShapeLoop,
		LTSDensity: 0.5, EventTypes: 3, InitialObjects: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cml", "csense", "mgrid", "smartspace", d.Name} {
		t.Run(name, func(t *testing.T) {
			// The bundle's definition is checked once per process, on its
			// first use.
			b, _ := domains.Lookup(name)
			if _, err := b.Checked(); err != nil {
				t.Fatal(err)
			}
			before := walks()
			inst, err := domains.New(name, domains.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			if n := walks() - before; n != 0 {
				t.Errorf("New: %d conformance walks, want 0 (the bundle's plan is compiled)", n)
			}
			switch name {
			case "cml":
				if _, err := inst.Platform.SubmitModel(cmlSession(t, inst)); err != nil {
					t.Fatal(err)
				}
			case d.Name:
				if _, err := inst.Platform.SubmitModel(d.Initial()); err != nil {
					t.Fatal(err)
				}
			}
			committed := inst.Platform.Synthesis.Committed()
			snap := inst.Platform.Quiesce()
			data, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}

			before = walks()
			fromValue, err := domains.RestoreSnapshot(name, snap, domains.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer fromValue.Close()
			if n := walks() - before; n != 0 {
				t.Errorf("RestoreSnapshot: %d conformance walks, want 0 (both models are checked)", n)
			}
			if fromValue.Platform.Synthesis.Committed() != committed {
				t.Error("RestoreSnapshot copied the snapshot's committed model instead of sharing it")
			}

			before = walks()
			fromBytes, err := domains.Restore(name, data, domains.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer fromBytes.Close()
			if n := walks() - before; n != 2 {
				t.Errorf("Restore from bytes: %d conformance walks, want 2 (middleware and application)", n)
			}
		})
	}
}
