package expr

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func evalStr(t *testing.T, src string, scope MapScope) any {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := Eval(n, Env{Scope: scope, Funcs: StdFuncs()})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestEvalBasics(t *testing.T) {
	scope := MapScope{
		"x": 10, "y": 4.0, "name": "cvm", "on": true,
		"ctx": MapScope{"bandwidth": 100, "mode": "audio"},
		"raw": map[string]any{"deep": map[string]any{"v": 7}},
	}
	tests := []struct {
		src  string
		want any
	}{
		{"1 + 2 * 3", 7.0},
		{"(1 + 2) * 3", 9.0},
		{"10 / 4", 2.5},
		{"10 % 4", 2.0},
		{"-x + 1", -9.0},
		{"2 < 3", true},
		{"2 >= 3", false},
		{"x == 10", true},
		{"x != y", true},
		{"x > y && on", true},
		{"false || on", true},
		{"!on", false},
		{"!(x < y)", true},
		{"name == 'cvm'", true},
		{`name + "-vm"`, "cvm-vm"},
		{`"abc" < "abd"`, true},
		{"ctx.bandwidth >= 50", true},
		{"ctx.mode == 'audio'", true},
		{"raw.deep.v", 7.0},
		{"min(3, 1, 2)", 1.0},
		{"max(3, 1, 2)", 3.0},
		{"abs(0 - 5)", 5.0},
		{"len('abcd')", 4.0},
		{"contains('hello', 'ell')", true},
		{"floor(2.7)", 2.0},
		{"ceil(2.1)", 3.0},
		{"true", true},
		{"false", false},
		{"'quoted \\' inner'", "quoted ' inner"},
	}
	for _, tt := range tests {
		if got := evalStr(t, tt.src, scope); got != tt.want {
			t.Errorf("%q = %v (%T), want %v", tt.src, got, got, tt.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	// The right side references an unbound variable; short-circuiting must
	// avoid evaluating it.
	scope := MapScope{"a": true, "b": false}
	if got := evalStr(t, "a || boom", scope); got != true {
		t.Error("|| must short circuit")
	}
	if got := evalStr(t, "b && boom", scope); got != false {
		t.Error("&& must short circuit")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "1 2", "min(1,", "min(1 2)", "@", "'open",
		"&& 1", "1..2.3", "*1", "f(,)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		} else {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Errorf("Parse(%q): want *ParseError, got %T", src, err)
			}
		}
	}
}

func TestEvalErrors(t *testing.T) {
	scope := MapScope{"s": "str", "n": 1}
	bad := []string{
		"unbound",
		"!n",
		"-s",
		"s && true",
		"true && n",
		"1 < s",
		"s - 'a'",
		"1 / 0",
		"1 % 0",
		"nosuchfn(1)",
		"abs('x')",
		"abs(1, 2)",
		"len(1)",
		"contains(1, 2)",
		"contains('a')",
		"min()",
		"min('a')",
		"min(1, 'a')",
		"floor('x')",
		"ceil('x')",
		"floor(1, 2)",
		"ceil()",
		"len('a', 'b')",
	}
	for _, src := range bad {
		n, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Eval(n, Env{Scope: scope, Funcs: StdFuncs()}); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestUnboundIdentifierIsMatchable(t *testing.T) {
	n := MustParse("ghost > 1")
	_, err := Eval(n, Env{Scope: MapScope{}})
	if !errors.Is(err, ErrUnboundIdentifier) {
		t.Fatalf("want ErrUnboundIdentifier, got %v", err)
	}
}

func TestEvalBoolAndNumber(t *testing.T) {
	env := Env{Scope: MapScope{"x": 3}}
	if b, err := EvalBool(MustParse("x > 2"), env); err != nil || !b {
		t.Errorf("EvalBool: %v %v", b, err)
	}
	if _, err := EvalBool(MustParse("x + 2"), env); err == nil {
		t.Error("EvalBool on number should fail")
	}
	if f, err := EvalNumber(MustParse("x + 2"), env); err != nil || f != 5 {
		t.Errorf("EvalNumber: %v %v", f, err)
	}
	if _, err := EvalNumber(MustParse("x > 2"), env); err == nil {
		t.Error("EvalNumber on bool should fail")
	}
	if _, err := EvalBool(MustParse("ghost"), env); err == nil {
		t.Error("EvalBool propagates errors")
	}
	if _, err := EvalNumber(MustParse("ghost"), env); err == nil {
		t.Error("EvalNumber propagates errors")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad input")
		}
	}()
	MustParse("((")
}

func TestScopeNormalization(t *testing.T) {
	scope := MapScope{"i32": int32(3), "i64": int64(4), "u": uint(5), "f32": float32(1.5)}
	if got := evalStr(t, "i32 + i64 + u", scope); got != 12.0 {
		t.Errorf("int widening: %v", got)
	}
	if got := evalStr(t, "f32 * 2", scope); got != 3.0 {
		t.Errorf("float32 widening: %v", got)
	}
}

func TestStringRendering(t *testing.T) {
	tests := []string{
		"1 + 2 * 3",
		"min(x, 2)",
		"!a && b",
		`"s" + 'x'`,
		"-(a)",
	}
	for _, src := range tests {
		n := MustParse(src)
		// Rendered source must reparse to an equivalent tree (same render).
		n2 := MustParse(n.String())
		if n.String() != n2.String() {
			t.Errorf("%q: render not stable: %q vs %q", src, n.String(), n2.String())
		}
	}
}

// genExpr builds a random well-formed expression over numeric variables.
func genExpr(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return []string{"a", "b", "c"}[r.Intn(3)]
		case 1:
			return "1"
		default:
			return "2.5"
		}
	}
	ops := []string{"+", "-", "*"}
	return "(" + genExpr(r, depth-1) + " " + ops[r.Intn(len(ops))] + " " + genExpr(r, depth-1) + ")"
}

// Property: parsing the canonical rendering of a parsed expression yields
// the same value.
func TestParseRenderEvalProperty(t *testing.T) {
	env := Env{Scope: MapScope{"a": 2, "b": 3, "c": 5}}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genExpr(r, 4)
		n1, err := Parse(src)
		if err != nil {
			return false
		}
		n2, err := Parse(n1.String())
		if err != nil {
			return false
		}
		v1, err1 := Eval(n1, env)
		v2, err2 := Eval(n2, env)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(v1.(float64)-v2.(float64)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: comparison operators are mutually consistent.
func TestComparisonConsistencyProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		env := Env{Scope: MapScope{"a": a, "b": b}}
		lt, _ := EvalBool(MustParse("a < b"), env)
		ge, _ := EvalBool(MustParse("a >= b"), env)
		eq, _ := EvalBool(MustParse("a == b"), env)
		le, _ := EvalBool(MustParse("a <= b"), env)
		return lt != ge && le == (lt || eq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepDotPathMisses(t *testing.T) {
	scope := MapScope{"a": MapScope{"b": 1}, "plain": 5}
	if _, ok := scope.Lookup("a.zzz"); ok {
		t.Error("missing nested key should miss")
	}
	if _, ok := scope.Lookup("plain.sub"); ok {
		t.Error("dotting into a scalar should miss")
	}
	if _, ok := scope.Lookup("ghost.x"); ok {
		t.Error("missing head should miss")
	}
	if v, ok := scope.Lookup("a.b"); !ok || v != 1 {
		t.Error("nested lookup should hit")
	}
}

func BenchmarkParse(b *testing.B) {
	src := "ctx.bandwidth >= 50 && (mode == 'audio' || mode == 'video') && !degraded"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEval(b *testing.B) {
	n := MustParse("ctx.bandwidth >= 50 && (mode == 'audio' || mode == 'video') && !degraded")
	env := Env{Scope: MapScope{
		"ctx":      MapScope{"bandwidth": 80},
		"mode":     "video",
		"degraded": false,
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(n, env); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStringsOrderOps(t *testing.T) {
	scope := MapScope{}
	if got := evalStr(t, `"a" <= "a"`, scope); got != true {
		t.Error("<= on strings")
	}
	if got := evalStr(t, `"b" > "a"`, scope); got != true {
		t.Error("> on strings")
	}
	if got := evalStr(t, `"b" >= "c"`, scope); got != false {
		t.Error(">= on strings")
	}
	n := MustParse(`"a" * "b"`)
	if _, err := Eval(n, Env{}); err == nil || !strings.Contains(err.Error(), "not defined on strings") {
		t.Errorf("* on strings must fail: %v", err)
	}
}

// TestStdFuncsIsOneTable: every caller shares one function table instead
// of building its own.
func TestStdFuncsIsOneTable(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { _ = StdFuncs() }); n != 0 {
		t.Errorf("StdFuncs allocates %.0f times per call", n)
	}
}
