package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/domains"
	"github.com/mddsm/mddsm/internal/domains/cml"
	"github.com/mddsm/mddsm/internal/domains/csense"
	"github.com/mddsm/mddsm/internal/domains/mgrid"
	"github.com/mddsm/mddsm/internal/domains/smartspace"
	"github.com/mddsm/mddsm/internal/domgen"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/runtime"
)

// parkCase drives one bundle through the park path: before is submitted
// and events delivered ahead of the capture, after is submitted and the
// events delivered again on each restored copy. A restored tenant's
// simulated shell starts empty, so after only adds objects to before.
type parkCase struct {
	bundle        string
	before, after *metamodel.Model
	event         func(i int) broker.Event
}

// parkCases covers the four hand-built bundles and two generated ones.
func parkCases(t *testing.T) []parkCase {
	t.Helper()
	named := func(name string) func(int) broker.Event {
		return func(i int) broker.Event {
			return broker.Event{Name: name, Attrs: map[string]any{"key": fmt.Sprintf("k%d", i%3), "seq": i}}
		}
	}
	cmlAfter := sessionModel(t)
	cmlAfter.NewObject("carol", "Person").SetAttr("name", "Carol").SetAttr("role", "chair")
	cmlAfter.NewObject("s2", "Session").SetAttr("topic", "follow-up").
		SetRef("participants", "carol").SetRef("streams", "v2")
	cmlAfter.NewObject("v2", "Stream").SetAttr("media", "video").SetAttr("bandwidth", 256).SetAttr("session", "s2")

	grid := func(devices ...string) *metamodel.Model {
		m := metamodel.NewModel(mgrid.MetamodelName)
		m.NewObject("home", "Microgrid").SetAttr("name", "Casa Verde").
			SetRef("devices", devices...).SetRef("policies", "reserve")
		for i, d := range devices {
			m.NewObject(d, "DeviceCfg").SetAttr("kind", d).SetAttr("capacity", 5+i).SetAttr("output", i-1)
		}
		m.NewObject("reserve", "EnergyPolicy").SetAttr("name", "keep-reserve").SetAttr("reserve", 0.3)
		return m
	}
	space := func(rules ...string) *metamodel.Model {
		m := metamodel.NewModel(smartspace.MetamodelName)
		m.NewObject("lamp1", "ObjectDecl").SetAttr("kind", "lamp")
		for _, r := range rules {
			m.NewObject(r, "Rule").SetAttr("onEvent", "objectEntered").SetAttr("subject", "badge-"+r).
				SetAttr("targetObject", "lamp1").SetAttr("prop", "on").SetAttr("value", "true")
		}
		return m
	}
	query := func(sensors ...string) *metamodel.Model {
		m := metamodel.NewModel(csense.MetamodelName)
		for _, s := range sensors {
			m.NewObject(s, "Query").SetAttr("sensor", s).SetAttr("region", "downtown").SetAttr("aggregate", "avg")
		}
		return m
	}
	cases := []parkCase{
		{cml.MetamodelName, sessionModel(t), cmlAfter, named("mediaFailure")},
		{"mgrid", grid("solar", "battery"), grid("solar", "battery", "load"), named("telemetry")},
		{"smartspace", space("welcome"), space("welcome", "greet"), named("motion")},
		{"csense", query("temp"), query("temp", "noise"), named("tick")},
	}
	for i, spec := range []domgen.Spec{
		{Name: "park-loop", Seed: 71, Classes: 4, Depth: 2, AttrsPerClass: 3, Enums: 1, EnumLiterals: 2,
			LTSStates: 3, LTSShape: domgen.ShapeLoop, LTSDensity: 0.5, EventTypes: 3, InitialObjects: 8},
		{Name: "park-star", Seed: 72, Classes: 6, Depth: 1, AttrsPerClass: 2, Enums: 2, EnumLiterals: 3,
			LTSStates: 4, LTSShape: domgen.ShapeStar, LTSDensity: 0.8, EventTypes: 4, InitialObjects: 12},
	} {
		d, err := domgen.Register(spec)
		if err != nil {
			t.Fatalf("domgen spec %d: %v", i, err)
		}
		// The follow-up submission removes every object.
		cases = append(cases, parkCase{d.Name, d.Initial(), metamodel.NewModel(d.Initial().MetamodelName), d.Event})
	}
	return cases
}

// drive submits m (when non-nil) and delivers the case's events
// synchronously, so two copies driven alike see identical sequences.
func (c parkCase) drive(t *testing.T, inst *domains.Instance, m *metamodel.Model) {
	t.Helper()
	if m != nil {
		if _, err := inst.Platform.SubmitModel(m.Clone()); err != nil {
			t.Fatalf("%s: submit: %v", c.bundle, err)
		}
	}
	for i := 0; i < 6; i++ {
		// A failing delivery fails alike on both copies; the end-state
		// comparison covers it.
		_ = inst.Platform.DeliverEvent(c.event(i))
	}
}

// TestParkedValueRestoresLikeBytes restores every bundle's captured
// snapshot twice — once from the value, as rehydration does, and once
// through Encode and the byte path — drives both copies identically and
// requires equivalent end states and identical resource traces. The value
// itself must come out of both restores unchanged.
func TestParkedValueRestoresLikeBytes(t *testing.T) {
	for _, c := range parkCases(t) {
		t.Run(c.bundle, func(t *testing.T) {
			inst, err := domains.New(c.bundle, domains.Config{})
			if err != nil {
				t.Fatal(err)
			}
			c.drive(t, inst, c.before)
			snap := inst.Platform.Quiesce()
			data, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			fromValue, err := domains.RestoreSnapshot(c.bundle, snap, domains.Config{})
			if err != nil {
				t.Fatalf("restore from value: %v", err)
			}
			defer fromValue.Close()
			fromBytes, err := domains.Restore(c.bundle, data, domains.Config{})
			if err != nil {
				t.Fatalf("restore from bytes: %v", err)
			}
			defer fromBytes.Close()
			c.drive(t, fromValue, c.after)
			c.drive(t, fromBytes, c.after)

			endValue, err := fromValue.Platform.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			endBytes, err := fromBytes.Platform.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if same, err := runtime.SnapshotsEquivalent(endValue, endBytes); err != nil || !same {
				t.Fatalf("end states differ (err %v):\nvalue: %s\nbytes: %s", err, endValue, endBytes)
			}
			if a, b := fromValue.Trace(), fromBytes.Trace(); a != b {
				t.Fatalf("traces differ:\nvalue: %s\nbytes: %s", a, b)
			}
			if again, err := snap.Encode(); err != nil || !bytes.Equal(again, data) {
				t.Fatalf("restoring changed the captured snapshot (err %v)", err)
			}
		})
	}
}

// TestParkedSnapshotMatchesEvictionCheckpoint: a parked tenant's Snapshot
// bytes are the bytes Checkpoint produced for the same state just before
// eviction.
func TestParkedSnapshotMatchesEvictionCheckpoint(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if err := s.Create("acme", "cml"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitModel("acme", sessionModel(t)); err != nil {
		t.Fatal(err)
	}
	live, err := s.Snapshot("acme")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Evict("acme"); err != nil {
		t.Fatal(err)
	}
	parked, err := s.Snapshot("acme")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, parked) {
		t.Fatalf("parked snapshot differs from the checkpoint at eviction:\nlive:   %s\nparked: %s", live, parked)
	}
	st, err := s.Stat("acme")
	if err != nil {
		t.Fatal(err)
	}
	if st["snapshotBytes"] != len(live) {
		t.Fatalf("Stat snapshotBytes = %v, want %d", st["snapshotBytes"], len(live))
	}
}

// TestAdoptRefusesMalformedSnapshot: Adopt decodes the snapshot it parks,
// so a malformed one fails at adoption and leaves no tenant behind.
func TestAdoptRefusesMalformedSnapshot(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	for name, data := range map[string]string{
		"empty":       "",
		"not-json":    "nope",
		"bad-version": `{"version": 99}`,
		"no-model":    `{"version": 1}`,
		"bad-app-model": `{"version": 1, "middleware": {"metamodel": "m", "objects": []},
			"synthesis": {"appModel": {"objects": [{"id": "x"}, {"id": "x"}]}}}`,
	} {
		if err := s.Adopt(name, ExportedTenant{Bundle: "cml", Snapshot: []byte(data)}); err == nil {
			t.Errorf("%s: Adopt accepted a malformed snapshot", name)
		}
		if _, err := s.Route(name); err == nil {
			t.Errorf("%s: a refused adoption left a routable tenant", name)
		}
	}
	if got := s.Tenants(); len(got) != 0 {
		t.Fatalf("refused adoptions left tenants %v", got)
	}
	if s.Resident() != 0 || len(s.parked) != 0 || len(s.carried) != 0 {
		t.Fatalf("refused adoptions left state: %d resident, %d parked, %d ledgers", s.Resident(), len(s.parked), len(s.carried))
	}
}

// TestAdoptRefusesNonConformingCheckpoint: Adopt checks a well-formed
// checkpoint against its bundle's definition when the tenant is adopted,
// not when it is first touched. A checkpoint whose middleware or
// application model does not conform, or one of an unknown bundle, is
// refused and leaves no tenant behind; the untampered checkpoint is
// adopted and rehydrates.
func TestAdoptRefusesNonConformingCheckpoint(t *testing.T) {
	src := NewServer(Config{})
	defer src.Close()
	if err := src.Create("acme", "cml"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.SubmitModel("acme", sessionModel(t)); err != nil {
		t.Fatal(err)
	}
	exp, err := src.Export("acme")
	if err != nil {
		t.Fatal(err)
	}
	// tamper sets an attribute no class declares on the first object of
	// the checkpoint's model under key.
	tamper := func(key string) ExportedTenant {
		t.Helper()
		var doc map[string]any
		if err := json.Unmarshal(exp.Snapshot, &doc); err != nil {
			t.Fatal(err)
		}
		model := doc[key]
		if key == "appModel" {
			model = doc["synthesis"].(map[string]any)["appModel"]
		}
		first := model.(map[string]any)["objects"].([]any)[0].(map[string]any)
		first["attrs"].(map[string]any)["bogus"] = "x"
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return ExportedTenant{Bundle: exp.Bundle, Snapshot: data, Ledger: exp.Ledger}
	}
	unknown := exp
	unknown.Bundle = "nope"

	s := NewServer(Config{})
	defer s.Close()
	for name, bad := range map[string]ExportedTenant{
		"middleware":     tamper("middleware"),
		"application":    tamper("appModel"),
		"unknown-bundle": unknown,
	} {
		if err := s.Adopt(name, bad); err == nil {
			t.Errorf("%s: Adopt accepted the checkpoint", name)
		}
	}
	if got := s.Tenants(); len(got) != 0 || len(s.parked) != 0 || len(s.carried) != 0 {
		t.Fatalf("refused adoptions left tenants %v, %d parked, %d ledgers", got, len(s.parked), len(s.carried))
	}
	if err := s.Adopt("acme", exp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Model("acme"); err != nil {
		t.Fatalf("adopted tenant does not rehydrate: %v", err)
	}
}

// TestParkedSnapshotSharedAcrossGoroutines: a parked value is read outside
// the server lock — Snapshot encodes it while rehydration restores from it
// and eviction replaces it — and a rehydrated tenant shares its models
// with that value, so PATCHes commit over them while other goroutines
// still encode it. Every encoded snapshot must hold one of the models the
// PATCHes committed.
func TestParkedSnapshotSharedAcrossGoroutines(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	if err := s.Create("acme", "cml"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitModel("acme", sessionModel(t)); err != nil {
		t.Fatal(err)
	}
	roles := []string{"participant", "chair", "observer"}
	committed := make(map[string]*metamodel.Model, len(roles)) // role of alice → model
	for _, role := range roles {
		m := sessionModel(t)
		m.Get("alice").SetAttr("role", role)
		if err := m.Validate(cml.Metamodel()); err != nil {
			t.Fatal(err)
		}
		committed[role] = m
	}
	// parkedModel decodes an encoded snapshot's application model into
	// validated form.
	parkedModel := func(snap []byte) (*metamodel.Model, error) {
		var doc struct {
			Synthesis struct {
				AppModel json.RawMessage `json:"appModel"`
			} `json:"synthesis"`
		}
		if err := json.Unmarshal(snap, &doc); err != nil {
			return nil, err
		}
		m, err := metamodel.UnmarshalModel(doc.Synthesis.AppModel)
		if err != nil {
			return nil, err
		}
		return m, m.Validate(cml.Metamodel())
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var err error
				switch (g + i) % 4 {
				case 0:
					err = s.Evict("acme")
				case 1:
					var snap []byte
					if snap, err = s.Snapshot("acme"); err == nil {
						var m *metamodel.Model
						if m, err = parkedModel(snap); err == nil {
							role := m.Get("alice").StringAttr("role")
							if want, ok := committed[role]; !ok || !metamodel.Equal(m, want) {
								err = fmt.Errorf("snapshot holds a model no PATCH committed: %s", snap)
							}
						}
					}
				case 2:
					_, _, err = s.Model("acme")
				default:
					// A PATCH: rehydrate, edit a copy, commit it.
					var m *metamodel.Model
					if m, _, err = s.Model("acme"); err == nil {
						m.Get("alice").SetAttr("role", roles[(g+i)%len(roles)])
						_, err = s.SubmitModel("acme", m)
					}
				}
				// "not resident": another goroutine parked it first.
				if err != nil && !strings.Contains(err.Error(), "not resident") {
					t.Errorf("goroutine %d op %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRehydrateSharesCommittedModel: a tenant rehydrated from its parked
// value commits the very model it held before the park, not a copy, and
// its watchers see no change from the re-attach.
func TestRehydrateSharesCommittedModel(t *testing.T) {
	s := NewServer(Config{})
	defer s.Close()
	rec := &recordingObserver{}
	s.SetModelObserver(rec)
	if err := s.Create("acme", "cml"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitModel("acme", sessionModel(t)); err != nil {
		t.Fatal(err)
	}
	before, _, err := s.committed("acme")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Evict("acme"); err != nil {
			t.Fatal(err)
		}
		after, _, err := s.committed("acme") // rehydrates
		if err != nil {
			t.Fatal(err)
		}
		if after != before {
			t.Fatalf("park %d: the rehydrated tenant commits a copy of its model, not the parked value", i)
		}
	}
	if got := rec.attached(); len(got) != 4 || got[1] != before || got[2] != before || got[3] != before {
		t.Fatalf("re-attaches reported %v, want the parked model each time", got)
	}
}

// recordingObserver records the models each Attach reports.
type recordingObserver struct {
	mu     sync.Mutex
	models []*metamodel.Model
}

func (r *recordingObserver) Attach(_ string, m *metamodel.Model) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.models = append(r.models, m)
}

func (r *recordingObserver) Commit(string, *metamodel.Model, metamodel.ChangeList) {}

func (r *recordingObserver) attached() []*metamodel.Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metamodel.Model(nil), r.models...)
}
