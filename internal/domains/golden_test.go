package domains_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/csense"
	"github.com/mddsm/mddsm/internal/domains/mgrid"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/runtime"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenTenant is one bundle's fixed seeded tenant: two submissions, a
// few synchronously delivered events and a context value, all
// deterministic, so its Checkpoint bytes never vary.
type goldenTenant struct {
	bundle string
	models []func(inst *domains.Instance) *metamodel.Model
	events []broker.Event
}

func goldenTenants(t *testing.T) []goldenTenant {
	t.Helper()
	grid := func(devices ...string) func(*domains.Instance) *metamodel.Model {
		return func(*domains.Instance) *metamodel.Model {
			m := metamodel.NewModel(mgrid.MetamodelName)
			m.NewObject("home", "Microgrid").SetAttr("name", "Casa Verde").
				SetRef("devices", devices...).SetRef("policies", "reserve")
			for i, d := range devices {
				m.NewObject(d, "DeviceCfg").SetAttr("kind", d).SetAttr("capacity", 5+i).SetAttr("output", i-1)
			}
			m.NewObject("reserve", "EnergyPolicy").SetAttr("name", "keep-reserve").SetAttr("reserve", 0.3)
			return m
		}
	}
	space := func(rules ...string) func(*domains.Instance) *metamodel.Model {
		return func(*domains.Instance) *metamodel.Model {
			m := metamodel.NewModel(smartspace.MetamodelName)
			m.NewObject("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
			for _, r := range rules {
				m.NewObject(r, "Rule").SetAttr("onEvent", "objectEntered").SetAttr("subject", "badge-"+r).
					SetAttr("targetObject", "lamp1").SetAttr("prop", "on").SetAttr("value", "true")
			}
			return m
		}
	}
	query := func(sensors ...string) func(*domains.Instance) *metamodel.Model {
		return func(*domains.Instance) *metamodel.Model {
			m := metamodel.NewModel(csense.MetamodelName)
			for _, s := range sensors {
				m.NewObject(s, "Query").SetAttr("sensor", s).SetAttr("region", "downtown").SetAttr("aggregate", "avg")
			}
			return m
		}
	}
	return []goldenTenant{
		{"cml", []func(*domains.Instance) *metamodel.Model{
			func(inst *domains.Instance) *metamodel.Model { return cmlSession(t, inst) },
			func(inst *domains.Instance) *metamodel.Model {
				m := cmlSession(t, inst)
				m.NewObject("carol", "Person").SetAttr("name", "Carol").SetAttr("role", "chair")
				m.Get("s1").AddRef("participants", "carol")
				return m
			},
		}, []broker.Event{
			{Name: "streamFailed", Attrs: map[string]any{"session": "s1", "stream": "a1"}},
		}},
		{"mgrid", []func(*domains.Instance) *metamodel.Model{
			grid("solar", "battery"), grid("solar", "battery", "load"),
		}, []broker.Event{
			{Name: "telemetry", Attrs: map[string]any{}},
			{Name: "rebalanceNeeded", Attrs: map[string]any{"headroom": 1.5}},
		}},
		{"smartspace", []func(*domains.Instance) *metamodel.Model{
			space("welcome"), space("welcome", "greet"),
		}, []broker.Event{
			{Name: "objectEntered", Attrs: map[string]any{"object": "badge-welcome"}},
		}},
		{"csense", []func(*domains.Instance) *metamodel.Model{
			query("temperature"), query("temperature", "noise"),
		}, []broker.Event{
			{Name: "queryResult", Attrs: map[string]any{"query": "temperature", "value": 21.5, "samples": 3, "round": 1}},
		}},
	}
}

// TestGoldenCheckpoints pins the snapshot format byte for byte: each
// bundle's fixed seeded tenant checkpoints to the committed bytes, and
// those bytes restore to a platform whose checkpoint is equivalent (the
// live generator counters start cold after a restore).
func TestGoldenCheckpoints(t *testing.T) {
	for _, g := range goldenTenants(t) {
		t.Run(g.bundle, func(t *testing.T) {
			inst, err := domains.New(g.bundle, domains.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			inst.Platform.Broker.Context().Set("securityLevel", 2.0)
			for _, model := range g.models {
				if _, err := inst.Platform.SubmitModel(model(inst)); err != nil {
					t.Fatal(err)
				}
				for _, ev := range g.events {
					// A failing delivery fails alike on every run; the
					// checkpoint records its effects either way.
					_ = inst.Platform.DeliverEvent(ev)
				}
			}
			got, err := inst.Platform.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", "checkpoint-"+g.bundle+".json")
			if *updateGolden {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("golden file missing (run with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint differs from %s:\n got: %s\nwant: %s", golden, got, want)
			}

			restored, err := domains.Restore(g.bundle, want, domains.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			again, err := restored.Platform.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if same, err := runtime.SnapshotsEquivalent(again, want); err != nil || !same {
				t.Fatalf("restored checkpoint not equivalent to %s (err %v):\n got: %s\nwant: %s", golden, err, again, want)
			}
		})
	}
}
