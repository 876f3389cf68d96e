package script

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCommandString(t *testing.T) {
	c := NewCommand("createConnection", "session:s1").
		WithArg("media", "audio").
		WithArg("bandwidth", 64).
		WithArg("secure", true)
	want := `createConnection session:s1 bandwidth=64 media="audio" secure=true`
	if got := c.String(); got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestCommandArgsAccessors(t *testing.T) {
	c := NewCommand("op", "t").WithArg("s", "x").WithArg("n", 3).WithArg("b", true)
	if c.StringArg("s") != "x" || c.NumArg("n") != 3 || !c.BoolArg("b") {
		t.Error("typed accessors")
	}
	if c.StringArg("nope") != "" || c.NumArg("nope") != 0 || c.BoolArg("nope") {
		t.Error("absent args give zero values")
	}
	if v, ok := c.Arg("s"); !ok || v != "x" {
		t.Error("Arg")
	}
	if _, ok := c.Arg("zz"); ok {
		t.Error("Arg absence")
	}
}

func TestWithArgDoesNotMutate(t *testing.T) {
	c1 := NewCommand("op", "t").WithArg("a", 1)
	c2 := c1.WithArg("b", 2)
	if _, ok := c1.Arg("b"); ok {
		t.Error("WithArg must copy the args map")
	}
	if _, ok := c2.Arg("a"); !ok {
		t.Error("WithArg must preserve prior args")
	}
}

func TestWithArgIntWidening(t *testing.T) {
	c := NewCommand("op", "t").WithArg("i", 7).WithArg("i64", int64(9))
	if c.NumArg("i") != 7 || c.NumArg("i64") != 9 {
		t.Error("ints must widen to float64")
	}
}

func TestScriptFormatParseRoundtrip(t *testing.T) {
	s := New("sc1").Append(
		NewCommand("open", "dev:1").WithArg("rate", 2.5),
		NewCommand("send", "dev:1").WithArg("payload", `hello "world"`).WithArg("urgent", false),
		NewCommand("noTarget", "").WithArg("k", "v"),
		NewCommand("bare", "x"),
	)
	text := Format(s)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if back.ID != "sc1" || back.Len() != s.Len() {
		t.Fatalf("round trip: %+v", back)
	}
	for i := range s.Commands {
		if got, want := back.Commands[i].String(), s.Commands[i].String(); got != want {
			t.Errorf("cmd %d: got %q want %q", i, got, want)
		}
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	text := "\n# comment\nscript s\n\nop target k=1\n# another\n"
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || s.Commands[0].Op != "op" {
		t.Fatalf("%+v", s)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                        // no header
		"op t k=1",                // command before header
		"script a\nscript b",      // duplicate header
		"script a\nop t =v",       // empty key
		"script a\nop t \"unterm", // unterminated quote
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestParseCommandForms(t *testing.T) {
	c, err := ParseCommand(`dial peer:alice mode="video" retries=3 fast=true raw=unquoted`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Op != "dial" || c.Target != "peer:alice" {
		t.Fatalf("%+v", c)
	}
	if c.StringArg("mode") != "video" || c.NumArg("retries") != 3 || !c.BoolArg("fast") {
		t.Errorf("args: %+v", c.Args)
	}
	if c.Args["raw"] != "unquoted" {
		t.Errorf("bare value should stay string: %v", c.Args["raw"])
	}
	if _, err := ParseCommand(""); err == nil {
		t.Error("empty command must fail")
	}
}

func TestTraceEqualityAndDiff(t *testing.T) {
	var a, b Trace
	a.RecordOp("open", "d1", "rate", 2)
	a.RecordOp("send", "d1", "n", 1)
	b.RecordOp("open", "d1", "rate", 2)
	b.RecordOp("send", "d1", "n", 1)
	if !a.Equal(&b) {
		t.Fatal("identical traces must be equal")
	}
	if i, _, _ := a.FirstDiff(&b); i != -1 {
		t.Fatal("FirstDiff on equal traces must be -1")
	}
	b.RecordOp("close", "d1")
	if a.Equal(&b) {
		t.Fatal("length mismatch must not be equal")
	}
	if i, x, y := a.FirstDiff(&b); i != 2 || x != "<end>" || y == "" {
		t.Fatalf("FirstDiff tail: %d %q %q", i, x, y)
	}
	var c Trace
	c.RecordOp("open", "d2", "rate", 2)
	if i, _, _ := a.FirstDiff(&c); i != 0 {
		t.Fatal("FirstDiff should find index 0")
	}
	if a.Len() != 2 || len(a.Lines()) != 2 {
		t.Fatal("Len/Lines")
	}
	if !strings.Contains(a.String(), "\n") {
		t.Fatal("String should join with newlines")
	}
}

func TestTraceRecordOpOddKV(t *testing.T) {
	var tr Trace
	tr.RecordOp("op", "t", "k") // dangling key ignored
	if tr.Lines()[0] != "op t" {
		t.Errorf("got %q", tr.Lines()[0])
	}
	tr.RecordOp("op", "t", 42, "v") // non-string key formatted
	if !strings.Contains(tr.Lines()[1], "42=") {
		t.Errorf("got %q", tr.Lines()[1])
	}
}

// Property: any command built from random ops/targets/args survives a
// format->parse round trip with an identical canonical form.
func TestCommandRoundtripProperty(t *testing.T) {
	letters := "abcdefgXYZ:_-0123456789"
	randWord := func(r *rand.Rand, n int) string {
		var sb strings.Builder
		sb.WriteByte("abcdefg"[r.Intn(7)])
		for i := 0; i < n; i++ {
			sb.WriteByte(letters[r.Intn(len(letters))])
		}
		return sb.String()
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewCommand(randWord(r, 4), randWord(r, 5))
		for i := 0; i < r.Intn(5); i++ {
			key := randWord(r, 3)
			switch r.Intn(3) {
			case 0:
				c = c.WithArg(key, randWord(r, 6)+` "q" \`)
			case 1:
				c = c.WithArg(key, float64(r.Intn(1000))/4)
			default:
				c = c.WithArg(key, r.Intn(2) == 0)
			}
		}
		back, err := ParseCommand(c.String())
		if err != nil {
			t.Logf("seed %d: parse error %v for %q", seed, err, c.String())
			return false
		}
		return back.String() == c.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCommandString(b *testing.B) {
	c := NewCommand("createConnection", "session:s1").
		WithArg("media", "audio").WithArg("bandwidth", 64).WithArg("secure", true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.String()
	}
}

func TestScriptString(t *testing.T) {
	s := New("s").Append(NewCommand("a", "t1"), NewCommand("b", "t2"))
	if s.String() != "a t1\nb t2" {
		t.Errorf("got %q", s.String())
	}
}

func TestParseScalar(t *testing.T) {
	tests := []struct {
		in   string
		want any
	}{
		{"1.5", 1.5},
		{"true", true},
		{"false", false},
		{`"quoted"`, "quoted"},
		{"bare", "bare"},
	}
	for _, tt := range tests {
		if got := ParseScalar(tt.in); got != tt.want {
			t.Errorf("ParseScalar(%q) = %v", tt.in, got)
		}
	}
}

func TestTraceReset(t *testing.T) {
	var tr Trace
	tr.RecordOp("a", "t")
	tr.Reset()
	if tr.Len() != 0 {
		t.Errorf("after reset: %d", tr.Len())
	}
	tr.RecordOp("b", "t")
	if tr.Len() != 1 || tr.Lines()[0] != "b t" {
		t.Errorf("record after reset: %v", tr.Lines())
	}
}

// TestTraceRingBounded records ten times the cap: the trace keeps the last
// TraceCap lines and counts the rest, so Len, String, Equal and FirstDiff
// still describe the whole recording.
func TestTraceRingBounded(t *testing.T) {
	var a, b Trace
	const n = 10 * TraceCap
	for i := 0; i < n; i++ {
		a.RecordOp("send", "d1", "n", i)
		b.RecordOp("send", "d1", "n", i)
	}
	if a.Len() != n || a.Dropped() != n-TraceCap {
		t.Fatalf("Len = %d, Dropped = %d; want %d, %d", a.Len(), a.Dropped(), n, n-TraceCap)
	}
	lines := a.Lines()
	if len(lines) != TraceCap || lines[0] != fmt.Sprintf("send d1 n=%d", n-TraceCap) || lines[TraceCap-1] != fmt.Sprintf("send d1 n=%d", n-1) {
		t.Fatalf("kept %d lines, first %q, last %q", len(lines), lines[0], lines[len(lines)-1])
	}
	if first, _, _ := strings.Cut(a.String(), "\n"); first != fmt.Sprintf("... %d earlier commands dropped", n-TraceCap) {
		t.Fatalf("String starts %q", first)
	}
	if !a.Equal(&b) {
		t.Fatal("identical long traces must be equal")
	}
	b.RecordOp("close", "d1")
	if i, x, y := a.FirstDiff(&b); i != n-TraceCap || y != "<dropped>" || x == y {
		t.Fatalf("dropped counts differ: FirstDiff = %d %q %q", i, x, y)
	}
	a.RecordOp("open", "d1")
	if i, x, y := a.FirstDiff(&b); i != n || x != "open d1" || y != "close d1" {
		t.Fatalf("FirstDiff = %d %q %q, want %d", i, x, y, n)
	}
	a.Reset()
	if a.Len() != 0 || a.Dropped() != 0 || a.String() != "" {
		t.Fatalf("after Reset: Len %d, Dropped %d, String %q", a.Len(), a.Dropped(), a.String())
	}
}
