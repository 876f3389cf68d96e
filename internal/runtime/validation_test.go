package runtime

import (
	"encoding/json"
	"testing"

	"github.com/mddsm/mddsm/internal/broker"
	"github.com/mddsm/mddsm/internal/lts"
	"github.com/mddsm/mddsm/internal/metamodel"
	"github.com/mddsm/mddsm/internal/mwmeta"
)

// TestValidationRejectsNonConformant: every entry point that admits a
// model into a platform checks its conformance — Build and Restore for the
// middleware model; Submit, SubmitWoven, Draft.Validate and Restore for
// the application model. Each accepts a conformant model and rejects the
// same model made non-conformant. No entry point replays an earlier
// verdict, so this also holds when the conformant content was admitted
// first.
func TestValidationRejectsNonConformant(t *testing.T) {
	deps := Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": &rec{}},
		Repository: toyRepo(t),
	}
	// app is a session with one stream; without the stream's required
	// media attribute it does not conform.
	app := func(conform bool) *metamodel.Model {
		m := metamodel.NewModel("toy-dsml")
		m.NewObject("s1", "Session").AddRef("streams", "st1")
		st := m.NewObject("st1", "Stream")
		if conform {
			st.SetAttr("media", "audio")
		}
		return m
	}
	// middleware is the full-stack middleware model; an attribute its
	// metamodel does not declare makes it non-conformant.
	middleware := func(conform bool) *metamodel.Model {
		m := fullModel(t)
		if !conform {
			m.ObjectsOf(mwmeta.ClassPlatform)[0].SetAttr("bogus", "x")
		}
		return m
	}
	build := func(t *testing.T) *Platform {
		t.Helper()
		p, err := Build(middleware(true), deps, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// restore checkpoints a platform that committed the conformant
	// application model, swaps in the given models, and restores.
	restore := func(t *testing.T, mw, appModel *metamodel.Model) error {
		t.Helper()
		p := build(t)
		if _, err := p.SubmitModel(app(true)); err != nil {
			t.Fatal(err)
		}
		data, err := p.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		var doc snapshotDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Middleware, err = metamodel.MarshalModel(mw); err != nil {
			t.Fatal(err)
		}
		if doc.Synthesis.AppModel, err = metamodel.MarshalModel(appModel); err != nil {
			t.Fatal(err)
		}
		if data, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		_, err = Restore(data, deps, Config{})
		return err
	}

	for _, c := range []struct {
		name  string
		admit func(t *testing.T, conform bool) error
	}{
		{"Build", func(t *testing.T, conform bool) error {
			_, err := Build(middleware(conform), deps, Config{})
			return err
		}},
		{"Submit", func(t *testing.T, conform bool) error {
			_, err := build(t).SubmitModel(app(conform))
			return err
		}},
		{"SubmitWoven", func(t *testing.T, conform bool) error {
			_, err := build(t).UI.SubmitWoven(app(conform))
			return err
		}},
		{"DraftValidate", func(t *testing.T, conform bool) error {
			d := build(t).UI.NewDraft()
			d.MustAdd("s1", "Session").AddRef("streams", "st1")
			st := d.MustAdd("st1", "Stream")
			if conform {
				st.SetAttr("media", "audio")
			}
			return d.Validate()
		}},
		{"RestoreApplication", func(t *testing.T, conform bool) error {
			return restore(t, middleware(true), app(conform))
		}},
		{"RestoreMiddleware", func(t *testing.T, conform bool) error {
			return restore(t, middleware(conform), app(true))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.admit(t, true); err != nil {
				t.Fatalf("conformant model rejected: %v", err)
			}
			if err := c.admit(t, false); err == nil {
				t.Fatal("non-conformant model accepted")
			}
		})
	}
}

// walks reports how many full conformance walks the process has run so
// far, over every dispatch path of metamodel.Model.Validate.
func walks() int64 {
	fast, interpreted, _, _ := metamodel.ValidationStats()
	return fast + interpreted
}

// toyApp is a conformant application model for the toy DSML: a session
// with one audio stream.
func toyApp() *metamodel.Model {
	m := metamodel.NewModel("toy-dsml")
	m.NewObject("s1", "Session").AddRef("streams", "st1")
	m.NewObject("st1", "Stream").SetAttr("media", "audio")
	return m
}

// TestBuildValidatesMiddlewareOnce: the regression test for the
// double-validation bug. Building a platform walks the middleware model's
// conformance exactly once. No verdict is replayed, so rebuilding from the
// same content walks it once more.
func TestBuildValidatesMiddlewareOnce(t *testing.T) {
	mw := fullModel(t)
	deps := Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": &rec{}},
		Repository: toyRepo(t),
	}
	for i := 1; i <= 2; i++ {
		before := walks()
		if _, err := Build(mw, deps, Config{}); err != nil {
			t.Fatal(err)
		}
		if n := walks() - before; n != 1 {
			t.Fatalf("build %d: %d conformance walks, want 1 (middleware validated once)", i, n)
		}
	}
}

// TestSubmitDedupesValidation: an application model's conformance is
// checked once per submission across the UI and Synthesis layers — the UI
// adds no walk of its own. A resubmission of unchanged content is checked
// again (no verdict is replayed) and dispatches nothing.
func TestSubmitDedupesValidation(t *testing.T) {
	p, _ := buildFull(t)
	m := toyApp()

	before := walks()
	if _, err := p.SubmitModel(m); err != nil {
		t.Fatal(err)
	}
	if n := walks() - before; n != 1 {
		t.Fatalf("first submit: %d conformance walks, want 1", n)
	}

	before = walks()
	sc, err := p.SubmitModel(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if n := walks() - before; n != 1 {
		t.Fatalf("resubmit: %d conformance walks, want 1", n)
	}
	if sc.Len() != 0 {
		t.Errorf("resubmit of unchanged content dispatched %d commands", sc.Len())
	}
}

// TestSubmitWovenValidatesOnce: SubmitWoven checks the woven model once at
// the UI boundary. A non-conforming weave is rejected there with that one
// walk and never reaches Synthesis. A conforming weave is then checked
// once by Synthesis, which validates its own copy before committing: one
// walk per layer, none repeated.
func TestSubmitWovenValidatesOnce(t *testing.T) {
	p, _ := buildFull(t)

	bad := metamodel.NewModel("toy-dsml")
	bad.NewObject("st2", "Stream") // required media unset
	before := walks()
	if _, err := p.UI.SubmitWoven(bad); err == nil {
		t.Fatal("non-conforming woven model accepted")
	}
	if n := walks() - before; n != 1 {
		t.Errorf("rejected weave: %d conformance walks, want 1 (UI boundary only)", n)
	}
	if seq := p.Synthesis.Seq(); seq != 0 {
		t.Errorf("rejected weave reached synthesis: seq %d", seq)
	}

	concern := metamodel.NewModel("toy-dsml")
	concern.NewObject("s1", "Session").AddRef("streams", "st1")
	concern.NewObject("st1", "Stream").SetAttr("media", "video")
	before = walks()
	if _, err := p.UI.SubmitWoven(concern); err != nil {
		t.Fatal(err)
	}
	if n := walks() - before; n != 2 {
		t.Errorf("woven submit: %d conformance walks, want 2 (UI boundary, then synthesis)", n)
	}
	if seq := p.Synthesis.Seq(); seq != 1 {
		t.Errorf("woven submit: synthesis seq %d, want 1", seq)
	}
}

// TestDraftValidateWarmsSubmit: Draft.Validate checks a copy of the draft
// with one walk, leaving the draft as edited, and the Submit that follows
// reaches the same verdict with one walk of its own. Nothing is memoised
// between them: a draft edited after Validate is checked afresh.
func TestDraftValidateWarmsSubmit(t *testing.T) {
	p, _ := buildFull(t)

	d := p.UI.NewDraft()
	s := d.MustAdd("s1", "Session")
	st := d.MustAdd("st1", "Stream")
	st.SetAttr("media", "audio")
	s.AddRef("streams", "st1")

	before := walks()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := walks() - before; n != 1 {
		t.Fatalf("draft validate: %d conformance walks, want 1", n)
	}
	before = walks()
	if _, err := d.Submit(); err != nil {
		t.Fatal(err)
	}
	if n := walks() - before; n != 1 {
		t.Fatalf("draft submit: %d conformance walks, want 1", n)
	}

	// An edit after a passing Validate is not covered by that verdict.
	st.UnsetAttr("media")
	if err := d.Validate(); err == nil {
		t.Fatal("draft validate accepted a stream without media")
	}
	if _, err := d.Submit(); err == nil {
		t.Fatal("draft submit accepted a stream without media")
	}
}

// TestRestoreReplaysValidation: restoring a checkpoint re-validates its
// models rather than trusting them — one walk for the middleware model and
// one for the application model — and does so again on every restore of
// the same checkpoint.
func TestRestoreReplaysValidation(t *testing.T) {
	p, r := buildFull(t)
	if _, err := p.SubmitModel(toyApp()); err != nil {
		t.Fatal(err)
	}
	snap, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	deps := Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": r},
		Repository: toyRepo(t),
	}
	for i := 1; i <= 2; i++ {
		before := walks()
		if _, err := Restore(snap, deps, Config{}); err != nil {
			t.Fatal(err)
		}
		if n := walks() - before; n != 2 {
			t.Errorf("restore %d: %d conformance walks, want 2 (middleware and application)", i, n)
		}
	}
}

// TestDisabledCacheStillValidates: with no validation cache, every
// submission is checked afresh. Content accepted once is rejected once it
// stops conforming, rejected again on resubmission, and accepted again
// once repaired.
func TestDisabledCacheStillValidates(t *testing.T) {
	p, _ := buildFull(t)
	good := toyApp()
	bad := good.Clone()
	bad.Get("st1").UnsetAttr("media")

	for i, c := range []struct {
		m  *metamodel.Model
		ok bool
	}{{good, true}, {bad, false}, {bad, false}, {good, true}} {
		before := walks()
		_, err := p.SubmitModel(c.m)
		if (err == nil) != c.ok {
			t.Fatalf("submission %d: err = %v, want accepted = %v", i, err, c.ok)
		}
		if n := walks() - before; n != 1 {
			t.Errorf("submission %d: %d conformance walks, want 1", i, n)
		}
	}
}

// TestCompiledPlanWalksOnce: a middleware model is checked and compiled
// once. Every platform instantiated from the plan, and every restore of a
// snapshot captured from one, shares the plan and walks no model; the
// restored platform shares the captured committed model too.
func TestCompiledPlanWalksOnce(t *testing.T) {
	deps := Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": &rec{}},
		Repository: toyRepo(t),
	}
	mw := fullModel(t)
	before := walks()
	plan, err := Compile(mw)
	if err != nil {
		t.Fatal(err)
	}
	if n := walks() - before; n != 1 {
		t.Fatalf("Compile: %d conformance walks, want 1", n)
	}

	before = walks()
	var platforms []*Platform
	for i := 0; i < 2; i++ {
		p, err := Instantiate(plan, deps, Config{})
		if err != nil {
			t.Fatal(err)
		}
		platforms = append(platforms, p)
	}
	if n := walks() - before; n != 0 {
		t.Errorf("two instantiations: %d conformance walks, want 0", n)
	}
	p := platforms[0]
	if _, err := p.SubmitModel(toyApp()); err != nil {
		t.Fatal(err)
	}
	committed := p.Synthesis.Committed()
	snap := p.Quiesce()

	before = walks()
	restored, err := RestoreSnapshot(snap, deps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := walks() - before; n != 0 {
		t.Errorf("RestoreSnapshot: %d conformance walks, want 0", n)
	}
	for i, q := range append(platforms, restored) {
		if q.Plan() != plan || q.Plan().Model() != plan.Model() {
			t.Errorf("platform %d does not share the compiled plan", i)
		}
	}
	if restored.Synthesis.Committed() != committed {
		t.Error("RestoreSnapshot copied the captured committed model")
	}
}

// TestDecodeRefusesNonConformingModels: checkpoint bytes are checked where
// they enter the process. DecodeSnapshot itself refuses a snapshot whose
// middleware or application model does not conform, and one with an
// application model but no DSML to check it against, so Restore refuses
// them before it builds anything.
func TestDecodeRefusesNonConformingModels(t *testing.T) {
	p, r := buildFull(t)
	if _, err := p.SubmitModel(toyApp()); err != nil {
		t.Fatal(err)
	}
	data, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	deps := Deps{
		DSML:       toyDSML(t),
		LTSes:      map[string]*lts.LTS{"sem": toyLTS()},
		Adapters:   map[string]broker.Adapter{"main": r},
		Repository: toyRepo(t),
	}
	if _, err := DecodeSnapshot(data, deps.DSML); err != nil {
		t.Fatalf("conformant snapshot refused: %v", err)
	}
	tamper := func(edit func(doc *snapshotDoc)) []byte {
		t.Helper()
		var doc snapshotDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		edit(&doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	marshal := func(m *metamodel.Model) json.RawMessage {
		t.Helper()
		out, err := metamodel.MarshalModel(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	badMiddleware := fullModel(t)
	badMiddleware.ObjectsOf(mwmeta.ClassPlatform)[0].SetAttr("bogus", "x")
	badApp := toyApp()
	badApp.Get("st1").UnsetAttr("media")
	for _, c := range []struct {
		name string
		data []byte
		dsml *metamodel.Metamodel
	}{
		{"middleware", tamper(func(doc *snapshotDoc) { doc.Middleware = marshal(badMiddleware) }), deps.DSML},
		{"application", tamper(func(doc *snapshotDoc) { doc.Synthesis.AppModel = marshal(badApp) }), deps.DSML},
		{"no DSML", data, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeSnapshot(c.data, c.dsml); err == nil {
				t.Error("DecodeSnapshot accepted the snapshot")
			}
			d := deps
			d.DSML = c.dsml
			if _, err := Restore(c.data, d, Config{}); err == nil {
				t.Error("Restore accepted the snapshot")
			}
		})
	}
}
