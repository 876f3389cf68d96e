package metamodel

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential tests for Conform: against the reference Clone()+Validate
// it must give the same verdict and problems, return a model identical to
// the validated copy, never modify its input, and return the input itself
// exactly when the input was already in validated form. The fuzz target
// FuzzCompiledValidate runs the same check over its corpus.

// identical reports whether two models hold the same objects in the same
// order, with attribute values equal in dynamic type and value and the
// same reference lists in the same order. Unlike Equal it tells an int64
// from the float64 a decoded model carries, so it also tells a model in
// validated form from one validation would still change.
func identical(a, b *Model) bool {
	if a.MetamodelName != b.MetamodelName || len(a.order) != len(b.order) || len(a.objects) != len(b.objects) {
		return false
	}
	for i, id := range a.order {
		if b.order[i] != id {
			return false
		}
		oa, ob := a.objects[id], b.objects[id]
		if ob == nil || oa.ID != ob.ID || oa.Class != ob.Class || len(oa.attrs) != len(ob.attrs) {
			return false
		}
		for k, v := range oa.attrs {
			w, ok := ob.attrs[k]
			if !ok || fmt.Sprintf("%T %#v", v, v) != fmt.Sprintf("%T %#v", w, w) {
				return false
			}
		}
		if fmt.Sprint(oa.RefNames()) != fmt.Sprint(ob.RefNames()) {
			return false
		}
		for _, r := range oa.RefNames() {
			if fmt.Sprint(oa.refs[r]) != fmt.Sprint(ob.refs[r]) {
				return false
			}
		}
	}
	return true
}

// assertConformMatchesValidate checks m.Conform(mm) against the reference
// Clone()+Validate.
func assertConformMatchesValidate(t testing.TB, label string, mm *Metamodel, m *Model) {
	t.Helper()
	before := m.Clone()
	ref := m.Clone()
	errRef := ref.Validate(mm)
	got, err := m.Conform(mm)
	if (err == nil) != (errRef == nil) {
		t.Fatalf("%s: verdicts diverge: Conform=%v Clone+Validate=%v", label, err, errRef)
	}
	// Problems compare as sorted multisets: both walks report in feature
	// map iteration order.
	if pc, pr := problemSet(t, err), problemSet(t, errRef); !equalStringSets(pc, pr) {
		t.Fatalf("%s: problems diverge:\nConform:        %v\nClone+Validate: %v", label, pc, pr)
	}
	if !identical(m, before) {
		t.Fatalf("%s: Conform modified its input", label)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("%s: Conform returned a model with an error", label)
		}
		return
	}
	if !identical(got, ref) {
		t.Fatalf("%s: Conform's result differs from the validated copy; diff: %s", label, Diff(ref, got))
	}
	if validated := identical(m, ref); (got == m) != validated {
		t.Fatalf("%s: Conform returned its input = %v, but the input in validated form = %v", label, got == m, validated)
	}
	if got != m {
		// A copy shares nothing with the input.
		for _, o := range got.Objects() {
			o.SetAttr("zz-probe", true)
			o.SetRef("zz-probe", "x")
		}
		if !identical(m, before) {
			t.Fatalf("%s: Conform's copy shares state with its input", label)
		}
	}
}

// TestDifferentialConform sweeps the differential generator's random
// metamodels and (mostly non-conforming) instances, each instance that
// conforms checked once more in validated form, and the property-test
// generator's models in validated form, decoded from JSON (valid, but
// validation still changes their int attributes) and broken.
func TestDifferentialConform(t *testing.T) {
	shared := 0
	check := func(label string, mm *Metamodel, m *Model) {
		t.Helper()
		assertConformMatchesValidate(t, label, mm, m)
		if got, err := m.Conform(mm); err == nil && got == m {
			shared++
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mm := genMetamodel(rng)
		for k := 0; k < 2; k++ {
			m := genInstance(rng, mm, 2+rng.Intn(10))
			label := fmt.Sprintf("seed %d instance %d", seed, k)
			check(label, mm, m)
			if m.Validate(mm) == nil {
				check(label+" validated", mm, m)
			}
		}
	}
	pmm := propMM(t)
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := genModel(rng, 2+rng.Intn(12))
		check(fmt.Sprintf("prop seed %d", seed), pmm, m)
		decoded, err := UnmarshalModel(mustMarshal(t, m))
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("prop seed %d decoded", seed), pmm, decoded)
		broken := m.Clone()
		breakModel(rng, broken)
		check(fmt.Sprintf("prop seed %d broken", seed), pmm, broken)
	}
	if shared < 100 {
		t.Fatalf("Conform returned its input %d times, want >= 100 models in validated form", shared)
	}
}

// TestConformCountsOneWalk: Conform is one conformance walk whether it
// returns its input (a validated model) or a copy (the same model decoded
// from JSON, its int attributes come back as floats).
func TestConformCountsOneWalk(t *testing.T) {
	mm := propMM(t)
	m := genModel(rand.New(rand.NewSource(1)), 8)
	if err := m.Validate(mm); err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalModel(mustMarshal(t, m))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		in     *Model
		shared bool
	}{{m, true}, {decoded, false}} {
		fast0, _, _, _ := ValidationStats()
		got, err := c.in.Conform(mm)
		if err != nil {
			t.Fatal(err)
		}
		if fast, _, _, _ := ValidationStats(); fast != fast0+1 {
			t.Fatalf("Conform ran %d compiled walks, want 1", fast-fast0)
		}
		if (got == c.in) != c.shared {
			t.Fatalf("Conform returned its input = %v, want %v", got == c.in, c.shared)
		}
	}
}

func mustMarshal(t *testing.T, m *Model) []byte {
	t.Helper()
	data, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDiffOfModelWithItselfIsEmpty: a model diffed against itself yields
// no changes without walking it, with or without containment ordering.
func TestDiffOfModelWithItselfIsEmpty(t *testing.T) {
	mm := propMM(t)
	m := genModel(rand.New(rand.NewSource(2)), 10)
	if cl := Diff(m, m); !cl.Empty() {
		t.Fatalf("Diff(m, m) = %v", cl)
	}
	if cl := DiffWithContainment(m, m, mm); !cl.Empty() {
		t.Fatalf("DiffWithContainment(m, m) = %v", cl)
	}
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	if n := testing.AllocsPerRun(10, func() {
		_ = Diff(m, m)
		_ = DiffWithContainment(m, m, mm)
	}); n != 0 {
		t.Fatalf("diffing a model against itself allocated %v times; a walk allocates", n)
	}
}
