package domains_test

import (
	"sort"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/domains"
	_ "github.com/mddsm/mddsm/internal/domains/all"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/domains/mgrid"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
	"github.com/mddsm/mddsm/internal/domgen"
	"github.com/mddsm/mddsm/internal/metamodel"
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

// TestNewIsTheBundlePath: each domain package's New runs the assembly its
// registered bundle runs. Built with one Config, the two platforms share
// the bundle's DSML, synthesise the same script from the same model,
// drive the same resource trace and capture equivalent snapshots.
func TestNewIsTheBundlePath(t *testing.T) {
	cfg := domains.Config{Runtime: runtime.Config{PumpQueue: 32, DLQCapacity: runtime.DLQDisabled}}
	type built struct {
		p     *runtime.Platform
		trace func() string
	}
	for _, c := range []struct {
		bundle string
		newVM  func() (built, error)
		model  func(d *ui.Draft)
		traced bool // whether submitting the model reaches the resource trace
	}{
		{"cml", func() (built, error) {
			vm, err := cml.New(cfg)
			if err != nil {
				return built{}, err
			}
			return built{vm.Platform, vm.Service.Trace().String}, nil
		}, func(d *ui.Draft) {
			d.MustAdd("alice", "Person").SetAttr("name", "Alice")
			d.MustAdd("bob", "Person").SetAttr("name", "Bob")
			d.MustAdd("s1", "Session").
				SetRef("participants", "alice", "bob").
				SetRef("streams", "a1")
			d.MustAdd("a1", "Stream").
				SetAttr("media", "audio").
				SetAttr("bandwidth", 64).
				SetAttr("session", "s1")
		}, true},
		{"mgrid", func() (built, error) {
			vm, err := mgrid.New(cfg)
			if err != nil {
				return built{}, err
			}
			return built{vm.Platform, vm.Plant.Trace().String}, nil
		}, func(d *ui.Draft) {
			d.MustAdd("home", "Microgrid").
				SetAttr("name", "Casa Verde").
				SetRef("devices", "solar", "load").
				SetRef("policies", "reserve")
			d.MustAdd("solar", "DeviceCfg").SetAttr("kind", "solar").SetAttr("capacity", 5).SetAttr("output", 3)
			d.MustAdd("load", "DeviceCfg").SetAttr("kind", "load").SetAttr("capacity", 8).SetAttr("output", -5)
			d.MustAdd("reserve", "EnergyPolicy").SetAttr("name", "keep-reserve").SetAttr("reserve", 0.3)
		}, true},
		{"smartspace", func() (built, error) {
			vm, err := smartspace.New(cfg)
			if err != nil {
				return built{}, err
			}
			return built{vm.Platform, vm.Hub.Space().Trace().String}, nil
		}, func(d *ui.Draft) {
			d.MustAdd("ana", "User").SetAttr("name", "Ana")
			d.MustAdd("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
			d.MustAdd("welcome", "Rule").
				SetAttr("onEvent", "objectEntered").
				SetAttr("subject", "badge-ana").
				SetAttr("targetObject", "lamp1").
				SetAttr("prop", "on").
				SetAttr("value", "true")
		}, false},
	} {
		t.Run(c.bundle, func(t *testing.T) {
			direct, err := c.newVM()
			if err != nil {
				t.Fatal(err)
			}
			defer direct.p.Stop()
			inst, err := domains.New(c.bundle, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()

			if direct.p.Synthesis.DSML() != inst.Platform.Synthesis.DSML() {
				t.Error("New runs a different DSML instance than the bundle")
			}
			if a, b := direct.p.Config(), inst.Platform.Config(); a != b {
				t.Errorf("runtime config: New %+v, bundle %+v", a, b)
			}

			d := direct.p.UI.NewDraft()
			c.model(d)
			var scripts [2]string
			for i, p := range []*runtime.Platform{direct.p, inst.Platform} {
				s, err := p.SubmitModel(d.Model())
				if err != nil {
					t.Fatal(err)
				}
				scripts[i] = s.String()
			}
			if scripts[0] != scripts[1] {
				t.Errorf("scripts differ:\n New: %s\nbundle: %s", scripts[0], scripts[1])
			}
			if a, b := direct.trace(), inst.Trace(); a != b {
				t.Errorf("resource traces differ:\n New: %s\nbundle: %s", a, b)
			} else if c.traced && a == "" {
				t.Error("the model drove no resource operation")
			}

			a, err := direct.p.Capture().Encode()
			if err != nil {
				t.Fatal(err)
			}
			b, err := inst.Platform.Capture().Encode()
			if err != nil {
				t.Fatal(err)
			}
			if same, err := runtime.SnapshotsEquivalent(a, b); err != nil || !same {
				t.Errorf("snapshots not equivalent (err %v):\n New: %s\nbundle: %s", err, a, b)
			}
		})
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
	fast, interpreted, fallback, _, _ := metamodel.ValidationStats()
	return fast + interpreted + fallback
}

// TestRegistryWalkCounts: provisioning a platform walks the one model it
// holds, its middleware model, once. A restore walks the two models the
// restored platform runs, the snapshot's middleware and application
// models, once each — from a captured snapshot, whose committed model the
// restored platform then shares, and from decoded bytes alike. The
// bundle's authored middleware model is not walked on restore.
func TestRegistryWalkCounts(t *testing.T) {
	d, err := domgen.Register(domgen.Spec{Name: "walk-loop", Seed: 73, Classes: 4, Depth: 2,
		AttrsPerClass: 3, Enums: 1, EnumLiterals: 2, LTSStates: 3, LTSShape: domgen.ShapeLoop,
		LTSDensity: 0.5, EventTypes: 3, InitialObjects: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cml", "csense", "mgrid", "smartspace", d.Name} {
		t.Run(name, func(t *testing.T) {
			before := walks()
			inst, err := domains.New(name, domains.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			if n := walks() - before; n != 1 {
				t.Errorf("New: %d conformance walks, want 1 (the middleware model)", n)
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
			if n := walks() - before; n != 2 {
				t.Errorf("RestoreSnapshot: %d conformance walks, want 2 (middleware and application)", n)
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
