package metamodel

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"github.com/mddsm/mddsm/internal/obs"
)

// compileMM is a metamodel exercising every compiled feature: inheritance,
// abstract classes, enums, defaults, required features, containment.
func compileMM(t testing.TB) *Metamodel {
	t.Helper()
	mm := New("compile-mm")
	mm.MustAddEnum(&Enum{Name: "Color", Literals: []string{"red", "green", "blue"}})
	mm.MustAddClass(&Class{Name: "Base", Abstract: true,
		Attributes: []Attribute{
			{Name: "name", Kind: KindString, Required: true},
			{Name: "color", Kind: KindEnum, EnumType: "Color", Default: "red"},
		},
	})
	mm.MustAddClass(&Class{Name: "Item", Super: "Base",
		Attributes: []Attribute{
			{Name: "count", Kind: KindInt, Default: 7},
			{Name: "ratio", Kind: KindFloat},
			{Name: "live", Kind: KindBool},
		},
		References: []Reference{
			{Name: "parts", Target: "Item", Containment: true, Many: true},
			{Name: "peer", Target: "Base"},
		},
	})
	mm.MustAddClass(&Class{Name: "Box", Super: "Item"})
	if err := mm.Validate(); err != nil {
		t.Fatal(err)
	}
	return mm
}

func TestCompileLayout(t *testing.T) {
	mm := compileMM(t)
	cm, err := Compile(mm)
	if err != nil {
		t.Fatal(err)
	}
	box := cm.classes["Box"]
	if box == nil {
		t.Fatal("class Box not compiled")
	}
	// Inheritance flattened: Box sees Base and Item features directly.
	for _, want := range []string{"name", "color", "count", "ratio", "live"} {
		if _, ok := box.attrIndex[want]; !ok {
			t.Errorf("Box missing flattened attribute %q", want)
		}
	}
	for _, want := range []string{"parts", "peer"} {
		if _, ok := box.refIndex[want]; !ok {
			t.Errorf("Box missing flattened reference %q", want)
		}
	}
	// Ancestor sets answer IsSubclassOf in one probe.
	for _, anc := range []string{"Box", "Item", "Base"} {
		if !cm.isKindOf("Box", anc) {
			t.Errorf("isKindOf(Box, %s) = false", anc)
		}
	}
	if cm.isKindOf("Item", "Box") || cm.isKindOf("Base", "Item") {
		t.Error("isKindOf inverted the hierarchy")
	}
	// Enum literals became a membership set; defaults were pre-normalised.
	color := &box.attrs[box.attrIndex["color"]]
	if _, ok := color.enum["green"]; !ok {
		t.Error("enum literal set missing green")
	}
	count := &box.attrs[box.attrIndex["count"]]
	if v, ok := count.def.(int64); !ok || v != 7 {
		t.Errorf("default for count = %v (%T), want int64 7", count.def, count.def)
	}
}

func TestCompileRejectsMalformedMetamodel(t *testing.T) {
	mm := New("broken")
	mm.MustAddClass(&Class{Name: "A", Super: "B"})
	mm.MustAddClass(&Class{Name: "B", Super: "A"})
	if _, err := Compile(mm); err == nil {
		t.Fatal("Compile accepted a metamodel with an inheritance cycle")
	}
	// The dispatching Validate must fall back to the interpreted walk and
	// agree with it; a compilable metamodel takes the compiled path.
	m := NewModel("broken")
	m.NewObject("x", "A")
	good, ok := compileMM(t), NewModel("compile-mm")
	ok.NewObject("i", "Item").SetAttr("name", "x")
	fast0, _, fallback0, _, _ := ValidationStats()
	errFast := m.Clone().Validate(mm)
	errRef := m.Clone().ValidateInterpreted(mm)
	if (errFast == nil) != (errRef == nil) {
		t.Fatalf("fallback disagreed with reference: %v vs %v", errFast, errRef)
	}
	if err := ok.Validate(good); err != nil {
		t.Fatal(err)
	}
	if fast, _, fallback, _, _ := ValidationStats(); fast != fast0+1 || fallback != fallback0+1 {
		t.Errorf("dispatch: %d compiled, %d fallback validations, want 1 each", fast-fast0, fallback-fallback0)
	}
}

func TestCompiledLazyAndInvalidated(t *testing.T) {
	mm := compileMM(t)
	cm1, err := mm.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	cm2, _ := mm.Compiled()
	if cm1 != cm2 {
		t.Error("Compiled() recompiled without a structural change")
	}
	fp1 := mm.Fingerprint()
	mm.MustAddClass(&Class{Name: "Extra", Super: "Item"})
	cm3, err := mm.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if cm3 == cm1 {
		t.Error("Compiled() returned a stale compilation after AddClass")
	}
	if cm3.classes["Extra"] == nil {
		t.Error("recompiled form misses the added class")
	}
	if mm.Fingerprint() == fp1 {
		t.Error("Fingerprint unchanged after a structural mutation")
	}
}

func TestFingerprintContentBased(t *testing.T) {
	a, b := compileMM(t), compileMM(t)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical content, different fingerprints")
	}
}

func TestCompiledValidateAppliesDefaultsAndNormalises(t *testing.T) {
	mm := compileMM(t)
	cm, err := mm.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel("compile-mm")
	o := m.NewObject("i", "Item").SetAttr("name", "x").SetAttr("ratio", 2) // int → float64
	if err := cm.Validate(m); err != nil {
		t.Fatal(err)
	}
	if v, _ := o.Attr("ratio"); v != float64(2) {
		t.Errorf("ratio not normalised: %v (%T)", v, v)
	}
	if o.StringAttr("color") != "red" {
		t.Errorf("enum default not applied: %q", o.StringAttr("color"))
	}
	if o.IntAttr("count") != 7 {
		t.Errorf("int default not applied: %d", o.IntAttr("count"))
	}
}

func TestValidationCacheHitsAndMetrics(t *testing.T) {
	mm := compileMM(t)
	c := NewValidationCache(8)
	reg := obs.NewMetrics()
	c.BindMetrics(reg)

	m := NewModel("compile-mm")
	m.NewObject("i", "Item").SetAttr("name", "x")

	v1, err := c.Validate(mm, m)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Validate(mm, m)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if reg.CounterValue(obs.MValidateCacheHits) != 1 || reg.CounterValue(obs.MValidateCacheMisses) != 1 {
		t.Error("obs mirror disagrees with Stats")
	}
	if !Equal(v1, v2) {
		t.Error("cached result differs from the validated original")
	}
	// The hit result is normalised exactly like a fresh validation.
	if v2.Get("i").IntAttr("count") != 7 {
		t.Error("cached clone lost applied defaults")
	}
	// Mutating a returned model must not corrupt the cache.
	v2.Get("i").SetAttr("count", int64(99))
	v3, _ := c.Validate(mm, m)
	if v3.Get("i").IntAttr("count") != 7 {
		t.Error("caller mutation leaked into the cache")
	}
}

func TestValidationCacheFailuresNotCached(t *testing.T) {
	mm := compileMM(t)
	c := NewValidationCache(8)
	bad := NewModel("compile-mm")
	bad.NewObject("i", "Item") // required "name" unset
	for i := 0; i < 2; i++ {
		if _, err := c.Validate(mm, bad); err == nil {
			t.Fatal("invalid model validated")
		}
	}
	if c.Len() != 0 {
		t.Errorf("failure cached: len = %d", c.Len())
	}
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 0/2", hits, misses)
	}
}

func TestValidationCacheMetamodelChangeInvalidates(t *testing.T) {
	mm := compileMM(t)
	c := NewValidationCache(8)
	m := NewModel("compile-mm")
	m.NewObject("i", "Item").SetAttr("name", "x")
	if _, err := c.Validate(mm, m); err != nil {
		t.Fatal(err)
	}
	// A structural change gives the metamodel new content: same model
	// bytes, different key → miss, not a stale hit.
	mm.MustAddClass(&Class{Name: "Extra", Super: "Item"})
	if _, err := c.Validate(mm, m); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 0/2 after metamodel change", hits, misses)
	}
}

func TestValidationCacheLRUEviction(t *testing.T) {
	mm := compileMM(t)
	c := NewValidationCache(2)
	models := make([]*Model, 3)
	for i := range models {
		m := NewModel("compile-mm")
		m.NewObject("i", "Item").SetAttr("name", strings.Repeat("x", i+1))
		models[i] = m
		if _, err := c.Validate(mm, m); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	// models[0] was least recently used and evicted; models[2] is live.
	if _, err := c.Validate(mm, models[2]); err != nil {
		t.Fatal(err)
	}
	hits, _, _ := c.Stats()
	if hits != 1 {
		t.Errorf("hits = %d, want 1 (models[2] should still be cached)", hits)
	}
	if _, err := c.Validate(mm, models[0]); err != nil {
		t.Fatal(err)
	}
	if hits2, misses, _ := c.Stats(); hits2 != 1 || misses != 4 {
		t.Errorf("stats = %d hits / %d misses, want 1/4 (models[0] evicted)", hits2, misses)
	}
}

func TestValidationCacheNilReceiver(t *testing.T) {
	mm := compileMM(t)
	var c *ValidationCache
	m := NewModel("compile-mm")
	m.NewObject("i", "Item").SetAttr("name", "x")
	v, err := c.Validate(mm, m)
	if err != nil {
		t.Fatal(err)
	}
	if v.Get("i").IntAttr("count") != 7 {
		t.Error("nil cache skipped validation side effects")
	}
	if _, set := m.Get("i").Attr("count"); set {
		t.Error("nil cache validated the caller's model in place")
	}
	bad := NewModel("compile-mm")
	bad.NewObject("i", "Item")
	if _, err := c.Validate(mm, bad); err == nil {
		t.Error("nil cache accepted an invalid model")
	}
}

func TestModelContentHashOrderSensitive(t *testing.T) {
	a := NewModel("m")
	a.NewObject("x", "C")
	a.NewObject("y", "C")
	b := NewModel("m")
	b.NewObject("y", "C")
	b.NewObject("x", "C")
	// Insertion order is semantically meaningful (diff/script ordering), so
	// the canonical encoding must distinguish it.
	if a.ContentHash() == b.ContentHash() {
		t.Error("content hash ignored insertion order")
	}
	if a.ContentHash() != a.Clone().ContentHash() {
		t.Error("clone changed the content hash")
	}
}

func TestCompiledMatchesInterpretedProblemSet(t *testing.T) {
	mm := compileMM(t)
	cm, err := mm.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	// A model with one of each problem class.
	m := NewModel("compile-mm")
	m.NewObject("a", "Ghost")                        // unknown class
	m.NewObject("b", "Base").SetAttr("name", "b")    // abstract
	m.NewObject("c", "Item").SetAttr("count", "ten") // wrong type + required name unset
	m.NewObject("d", "Item").SetAttr("name", "d").SetAttr("color", "mauve")
	m.NewObject("e", "Item").SetAttr("name", "e").SetRef("peer", "zz", "d") // dangling + cardinality
	m.NewObject("f", "Item").SetAttr("name", "f").SetRef("parts", "d")
	m.NewObject("g", "Item").SetAttr("name", "g").SetRef("parts", "d", "f") // double containment
	errC := cm.Validate(m.Clone())
	errI := m.Clone().ValidateInterpreted(mm)
	pc, pi := problemSet(t, errC), problemSet(t, errI)
	if len(pc) == 0 || len(pi) == 0 {
		t.Fatalf("expected problems, got %v / %v", errC, errI)
	}
	if !equalStringSets(pc, pi) {
		t.Fatalf("problem sets diverge:\ncompiled:    %v\ninterpreted: %v", pc, pi)
	}
}

// problemSet extracts the sorted problem list of a validation error (empty
// for nil).
func problemSet(t testing.TB, err error) []string {
	t.Helper()
	if err == nil {
		return nil
	}
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("not a ValidationError: %v", err)
	}
	out := append([]string(nil), ve.Problems...)
	sort.Strings(out)
	return out
}

func equalStringSets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
