package metamodel

import (
	"encoding/json"
	"testing"
)

// lenientMetamodel parses metamodel JSON without the well-formedness check
// UnmarshalMetamodel enforces, so fuzzing can feed structurally broken
// metamodels (inheritance cycles, unknown enums, bad kinds, duplicate
// names) through both validators. Unparseable input returns nil.
func lenientMetamodel(data []byte) *Metamodel {
	var doc jsonMetamodel
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil
	}
	m := New(doc.Name)
	for _, e := range doc.Enums {
		// Duplicates are skipped rather than rejected.
		_ = m.AddEnum(&Enum{Name: e.Name, Literals: e.Literals})
	}
	for _, jc := range doc.Classes {
		c := &Class{Name: jc.Name, Abstract: jc.Abstract, Super: jc.Super}
		for _, a := range jc.Attributes {
			kind, err := kindFromString(a.Kind)
			if err != nil {
				kind = Kind(0) // invalid kind, tolerated by the interpreted walk
			}
			c.Attributes = append(c.Attributes, Attribute{
				Name: a.Name, Kind: kind, EnumType: a.EnumType,
				Required: a.Required, Default: a.Default,
			})
		}
		for _, r := range jc.References {
			c.References = append(c.References, Reference{
				Name: r.Name, Target: r.Target, Containment: r.Containment,
				Many: r.Many, Required: r.Required,
			})
		}
		_ = m.AddClass(c)
	}
	return m
}

// FuzzCompiledValidate feeds arbitrary JSON metamodel/model pairs through
// the compiled and interpreted validators. For compilable metamodels the
// two must agree on verdict, problem multiset and resulting model state;
// for uncompilable ones the dispatching Validate must fall back to (and
// agree with) the interpreted walk without panicking. Conform must agree
// with Clone()+Validate on both (assertConformMatchesValidate).
func FuzzCompiledValidate(f *testing.F) {
	// Seed corpus: a valid pair, an inheritance cycle, an unknown enum, a
	// dangling reference, an abstract instantiation, a bad enum literal, a
	// bad kind, and a containment cycle.
	valid := `{"name":"z","enums":[{"name":"E","literals":["a","b"]}],` +
		`"classes":[{"name":"N","attributes":[{"name":"s","kind":"string","required":true},` +
		`{"name":"e","kind":"enum","enumType":"E","default":"a"}],` +
		`"references":[{"name":"kids","target":"N","containment":true,"many":true}]}]}`
	f.Add(valid, `{"metamodel":"z","objects":[{"id":"n1","class":"N","attrs":{"s":"hi"}}]}`)
	f.Add(`{"name":"cyc","classes":[{"name":"A","super":"B"},{"name":"B","super":"A"}]}`,
		`{"metamodel":"cyc","objects":[{"id":"x","class":"A","attrs":{"q":1}}]}`)
	f.Add(`{"name":"ue","classes":[{"name":"C","attributes":[{"name":"e","kind":"enum","enumType":"Nope"}]}]}`,
		`{"metamodel":"ue","objects":[{"id":"x","class":"C","attrs":{"e":"lit"}}]}`)
	f.Add(valid, `{"metamodel":"z","objects":[{"id":"n1","class":"N","attrs":{"s":"hi"},"refs":{"kids":["ghost"]}}]}`)
	f.Add(`{"name":"ab","classes":[{"name":"A","abstract":true}]}`,
		`{"metamodel":"ab","objects":[{"id":"x","class":"A"}]}`)
	f.Add(valid, `{"metamodel":"z","objects":[{"id":"n1","class":"N","attrs":{"s":"hi","e":"zzz"}}]}`)
	f.Add(`{"name":"bk","classes":[{"name":"C","attributes":[{"name":"a","kind":"wat"}]}]}`,
		`{"metamodel":"bk","objects":[{"id":"x","class":"C","attrs":{"a":1}}]}`)
	f.Add(valid, `{"metamodel":"z","objects":[`+
		`{"id":"n1","class":"N","attrs":{"s":"a"},"refs":{"kids":["n2"]}},`+
		`{"id":"n2","class":"N","attrs":{"s":"b"},"refs":{"kids":["n1"]}}]}`)

	f.Fuzz(func(t *testing.T, mmJSON, modelJSON string) {
		mm := lenientMetamodel([]byte(mmJSON))
		if mm == nil {
			t.Skip()
		}
		m, err := UnmarshalModel([]byte(modelJSON))
		if err != nil {
			t.Skip()
		}
		assertConformMatchesValidate(t, "conform", mm, m)
		cm, cerr := Compile(mm)
		if cerr != nil {
			// Uncompilable metamodel: the interpreted walk must still not
			// panic, and Validate must fail with the compile error.
			_ = m.Clone().ValidateInterpreted(mm)
			if err := m.Clone().Validate(mm); err == nil || err.Error() != cerr.Error() {
				t.Fatalf("Validate against an uncompilable metamodel = %v, want %v", err, cerr)
			}
			return
		}
		a, b := m.Clone(), m.Clone()
		errC := cm.Validate(a)
		errI := b.ValidateInterpreted(mm)
		if (errC == nil) != (errI == nil) {
			t.Fatalf("verdicts diverge: compiled=%v interpreted=%v", errC, errI)
		}
		if !equalStringSets(problemSet(t, errC), problemSet(t, errI)) {
			t.Fatalf("problem sets diverge:\ncompiled:    %v\ninterpreted: %v", errC, errI)
		}
		if !Equal(a, b) {
			t.Fatalf("post-validation models diverge; diff: %s", Diff(a, b))
		}
	})
}
