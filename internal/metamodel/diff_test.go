package metamodel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDiffIdentical(t *testing.T) {
	m := sampleModel(t)
	if cl := Diff(m, m.Clone()); !cl.Empty() {
		t.Fatalf("identical models must have an empty diff, got:\n%s", cl)
	}
}

func TestDiffAddRemoveObject(t *testing.T) {
	oldM := sampleModel(t)
	newM := oldM.Clone()
	newM.NewObject("b3", "Book").SetAttr("name", "SICP").SetAttr("genre", "science")
	newM.Get("lib").AddRef("books", "b3")
	if err := newM.Delete("b2"); err != nil {
		t.Fatal(err)
	}
	newM.Get("lib").RemoveRef("books", "b2")

	cl := Diff(oldM, newM)
	var kinds []string
	for _, c := range cl {
		kinds = append(kinds, c.Kind.String())
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "remove-object") || !strings.Contains(joined, "add-object") {
		t.Fatalf("diff should contain both add and remove: %s", cl)
	}
	// Removals must precede additions (teardown before setup).
	if strings.Index(joined, "remove-object") > strings.Index(joined, "add-object") {
		t.Errorf("removals must come before additions:\n%s", cl)
	}
}

func TestDiffAttrChanges(t *testing.T) {
	cases := []struct {
		name       string
		edit       func(m *Model)
		set, unset int
	}{
		{"changed, added and removed", func(m *Model) {
			m.Get("b1").SetAttr("pages", 500)   // changed
			m.Get("b1").SetAttr("rating", 3.5)  // added
			delete(m.Get("b2").attrs, "rating") // removed
		}, 2, 1},
		// Decoded JSON arrays and objects are not comparable with ==;
		// equal ones are no change and different ones one set-attr each.
		{"equal arrays and maps", func(m *Model) {
			m.Get("b1").SetAttr("tags", []any{"a", 1.0})
			m.Get("b2").SetAttr("meta", map[string]any{"k": []any{}})
		}, 0, 0},
		{"changed array and map", func(m *Model) {
			m.Get("b1").SetAttr("tags", []any{"a", 2.0})
			m.Get("b2").SetAttr("meta", map[string]any{"k": []any{"x"}})
		}, 2, 0},
		{"array replaced by a scalar", func(m *Model) {
			m.Get("b1").SetAttr("tags", "a")
		}, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oldM := sampleModel(t)
			oldM.Get("b1").SetAttr("tags", []any{"a", 1.0})
			oldM.Get("b2").SetAttr("meta", map[string]any{"k": []any{}})
			newM := oldM.Clone()
			tc.edit(newM)
			cl := Diff(oldM, newM)
			var set, unset int
			for _, c := range cl {
				switch c.Kind {
				case ChangeSetAttr:
					set++
				case ChangeUnsetAttr:
					unset++
				}
			}
			if len(cl) != tc.set+tc.unset || set != tc.set || unset != tc.unset {
				t.Errorf("want %d set + %d unset, got %d set %d unset:\n%s", tc.set, tc.unset, set, unset, cl)
			}
			if eq := Equal(oldM, newM); eq != cl.Empty() {
				t.Errorf("Equal = %v but the diff has %d changes", eq, len(cl))
			}
		})
	}
}

func TestDiffRefChanges(t *testing.T) {
	oldM := sampleModel(t)
	newM := oldM.Clone()
	newM.Get("b1").RemoveRef("borrower", "m1")
	newM.Get("b2").AddRef("borrower", "m1")
	cl := Diff(oldM, newM)
	if len(cl) != 2 {
		t.Fatalf("want 2 changes, got:\n%s", cl)
	}
}

func TestApplyReproducesDiff(t *testing.T) {
	oldM := sampleModel(t)
	newM := oldM.Clone()
	newM.NewObject("m2", "Member").SetAttr("name", "Grace")
	newM.Get("lib").AddRef("members", "m2")
	newM.Get("b1").SetAttr("lent", true)
	if err := newM.Delete("b2"); err != nil {
		t.Fatal(err)
	}
	newM.Get("lib").RemoveRef("books", "b2")

	cl := Diff(oldM, newM)
	work := oldM.Clone()
	if err := Apply(work, cl); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if !Equal(work, newM) {
		t.Fatalf("apply(old, diff) != new\nwork:\n%v\nnew:\n%v", work.Objects(), newM.Objects())
	}
}

func TestApplyErrors(t *testing.T) {
	m := NewModel("x")
	if err := Apply(m, ChangeList{{Kind: ChangeRemoveObject, ObjectID: "ghost"}}); err == nil {
		t.Error("removing absent object must error")
	}
	if err := Apply(m, ChangeList{{Kind: ChangeSetAttr, ObjectID: "ghost", Feature: "a"}}); err == nil {
		t.Error("set-attr on absent object must error")
	}
	if err := Apply(m, ChangeList{{Kind: ChangeUnsetAttr, ObjectID: "ghost", Feature: "a"}}); err == nil {
		t.Error("unset-attr on absent object must error")
	}
	if err := Apply(m, ChangeList{{Kind: ChangeAddRef, ObjectID: "ghost", Feature: "r", Target: "t"}}); err == nil {
		t.Error("add-ref on absent object must error")
	}
	if err := Apply(m, ChangeList{{Kind: ChangeKind(99)}}); err == nil {
		t.Error("invalid kind must error")
	}
	// remove-ref on an absent object is tolerated (already-removed container).
	if err := Apply(m, ChangeList{{Kind: ChangeRemoveRef, ObjectID: "ghost", Feature: "r", Target: "t"}}); err != nil {
		t.Errorf("remove-ref on absent object should be tolerated: %v", err)
	}
}

func TestChangeStrings(t *testing.T) {
	cases := []Change{
		{Kind: ChangeAddObject, ObjectID: "a", Class: "C"},
		{Kind: ChangeRemoveObject, ObjectID: "a", Class: "C"},
		{Kind: ChangeSetAttr, ObjectID: "a", Feature: "f", Old: 1, New: 2},
		{Kind: ChangeUnsetAttr, ObjectID: "a", Feature: "f", Old: 1},
		{Kind: ChangeAddRef, ObjectID: "a", Feature: "r", Target: "t"},
		{Kind: ChangeRemoveRef, ObjectID: "a", Feature: "r", Target: "t"},
		{Kind: ChangeKind(42), ObjectID: "a"},
	}
	for _, c := range cases {
		if c.String() == "" {
			t.Errorf("empty String for %v", c.Kind)
		}
	}
	cl := ChangeList(cases[:2])
	if !strings.Contains(cl.String(), "\n") {
		t.Error("ChangeList.String should join with newlines")
	}
}

// randomModel builds a pseudo-random model over a tiny metamodel to drive
// the property tests.
func randomModel(r *rand.Rand, n int) *Model {
	m := NewModel("prop")
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("o%d", i)
		o := m.NewObject(id, "Node")
		if r.Intn(2) == 0 {
			o.SetAttr("w", r.Intn(5))
		}
		if r.Intn(3) == 0 {
			o.SetAttr("tag", fmt.Sprintf("t%d", r.Intn(3)))
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		o := m.Get(id)
		for k := 0; k < r.Intn(3); k++ {
			o.AddRef("next", ids[r.Intn(len(ids))])
		}
	}
	return m
}

// mutate applies random edits to a clone of m.
func mutate(r *rand.Rand, m *Model) *Model {
	out := m.Clone()
	ids := out.IDs()
	for i := 0; i < 1+r.Intn(6); i++ {
		switch op := r.Intn(5); {
		case op == 0: // add object
			id := fmt.Sprintf("n%d", r.Int63())
			out.NewObject(id, "Node").SetAttr("w", r.Intn(5))
			ids = append(ids, id)
		case op == 1 && len(ids) > 0: // remove object
			victim := ids[r.Intn(len(ids))]
			if out.Get(victim) != nil {
				_ = out.Delete(victim)
				for _, id := range out.IDs() {
					out.Get(id).RemoveRef("next", victim)
				}
			}
		case op == 2 && len(ids) > 0: // set attr
			id := ids[r.Intn(len(ids))]
			if o := out.Get(id); o != nil {
				o.SetAttr("w", r.Intn(9))
			}
		case op == 3 && len(ids) > 0: // unset attr
			id := ids[r.Intn(len(ids))]
			if o := out.Get(id); o != nil {
				delete(o.attrs, "w")
			}
		case op == 4 && len(ids) > 1: // toggle ref
			a := ids[r.Intn(len(ids))]
			b := ids[r.Intn(len(ids))]
			if oa := out.Get(a); oa != nil && out.Get(b) != nil {
				if r.Intn(2) == 0 {
					oa.AddRef("next", b)
				} else {
					oa.RemoveRef("next", b)
				}
			}
		}
	}
	return out
}

// Property: Apply(old, Diff(old, new)) is Equal to new — for arbitrary
// random model pairs.
func TestDiffApplyRoundtripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		oldM := randomModel(r, 2+r.Intn(10))
		newM := mutate(r, oldM)
		cl := Diff(oldM, newM)
		work := oldM.Clone()
		if err := Apply(work, cl); err != nil {
			t.Logf("seed %d: apply error: %v\ndiff:\n%s", seed, err, cl)
			return false
		}
		if !Equal(work, newM) {
			t.Logf("seed %d: mismatch\ndiff:\n%s", seed, cl)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Diff(m, m) is empty for arbitrary models.
func TestDiffSelfEmptyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomModel(r, 1+r.Intn(12))
		return Diff(m, m.Clone()).Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Equal is symmetric and detects the first mutation.
func TestEqualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomModel(r, 2+r.Intn(8))
		b := mutate(r, a)
		eq := Equal(a, b)
		if eq != Equal(b, a) {
			return false
		}
		// Equal iff empty diff.
		return eq == Diff(a, b).Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDiffWithContainmentOrdersChildrenFirst(t *testing.T) {
	mm := libraryMM(t)
	oldM := sampleModel(t)
	// Remove the library and everything it contains.
	newM := NewModel("library")
	cl := DiffWithContainment(oldM, newM, mm)

	pos := map[string]int{}
	for i, c := range cl {
		if c.Kind == ChangeRemoveObject {
			pos[c.ObjectID] = i
		}
	}
	// Books and members are contained in the library: they must be removed
	// before it, even though "lib" sorts before "m1" alphabetically.
	for _, child := range []string{"b1", "b2", "m1"} {
		if pos[child] > pos["lib"] {
			t.Errorf("child %s removed after its container:\n%s", child, cl)
		}
	}
	// Plain Diff keeps pure ID order (the historical behaviour).
	plain := Diff(oldM, newM)
	first := ""
	for _, c := range plain {
		if c.Kind == ChangeRemoveObject {
			first = c.ObjectID
			break
		}
	}
	if first != "b1" {
		t.Errorf("plain diff first removal: %s", first)
	}
}

func TestContainmentDepthsTolerateCycles(t *testing.T) {
	mm := New("cyc")
	mm.MustAddClass(&Class{Name: "Node", References: []Reference{
		{Name: "child", Target: "Node", Containment: true, Many: true},
	}})
	m := NewModel("cyc")
	m.NewObject("a", "Node").SetRef("child", "b")
	m.NewObject("b", "Node").SetRef("child", "a") // invalid, but must not hang
	d := containmentDepths(m, mm)
	if len(d) != 2 {
		t.Fatalf("depths: %v", d)
	}
}

func TestDiffWithContainmentApplyRoundtrip(t *testing.T) {
	mm := libraryMM(t)
	oldM := sampleModel(t)
	newM := NewModel("library")
	newM.NewObject("m1", "Member").SetAttr("name", "Ada")
	cl := DiffWithContainment(oldM, newM, mm)
	work := oldM.Clone()
	if err := Apply(work, cl); err != nil {
		t.Fatalf("apply: %v\n%s", err, cl)
	}
	if !Equal(work, newM) {
		t.Fatal("containment-ordered diff must still apply cleanly")
	}
}

func BenchmarkDiffLargeModels(b *testing.B) {
	// 1000-object models differing in ~10% of objects: the Synthesis
	// model comparator's scaling case.
	build := func(mutate bool) *Model {
		m := NewModel("big")
		for i := 0; i < 1000; i++ {
			o := m.NewObject(fmt.Sprintf("o%d", i), "Node")
			v := i
			if mutate && i%10 == 0 {
				v = i + 1
			}
			o.SetAttr("w", v)
			if i > 0 {
				o.AddRef("next", fmt.Sprintf("o%d", i-1))
			}
		}
		return m
	}
	oldM, newM := build(false), build(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cl := Diff(oldM, newM); len(cl) != 100 {
			b.Fatalf("changes: %d", len(cl))
		}
	}
}
