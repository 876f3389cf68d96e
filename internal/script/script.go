// Package script defines control scripts: the currency between the Synthesis
// and Controller layers (command scripts) and between the Controller and
// Broker layers (calls). A script is an ordered list of commands, each with
// an operation, a target and named arguments.
//
// The package also provides a canonical textual form used both as a codec
// and as the normalised trace format with which the experiments check
// behavioural equivalence between middleware implementations (paper §VII-A).
package script

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Command is a single operation of a control script.
type Command struct {
	// Op is the operation name, e.g. "createConnection".
	Op string
	// Target addresses the entity operated on, e.g. "session:s1".
	Target string
	// Args carries named parameters. Values are string, float64 or bool.
	Args map[string]any
}

// NewCommand builds a command with no arguments. Args stays nil until the
// first WithArg: commands on the event hot path mostly carry none, and
// every accessor treats a nil map as empty.
func NewCommand(op, target string) Command {
	return Command{Op: op, Target: target}
}

// WithArg returns a copy of the command with the argument set.
func (c Command) WithArg(key string, v any) Command {
	args := make(map[string]any, len(c.Args)+1)
	for k, val := range c.Args {
		args[k] = val
	}
	switch n := v.(type) {
	case int:
		v = float64(n)
	case int64:
		v = float64(n)
	}
	args[key] = v
	c.Args = args
	return c
}

// Arg returns the named argument and whether it is present.
func (c Command) Arg(key string) (any, bool) {
	v, ok := c.Args[key]
	return v, ok
}

// StringArg returns the named argument as a string ("" when absent).
func (c Command) StringArg(key string) string {
	s, _ := c.Args[key].(string)
	return s
}

// NumArg returns the named argument as a float64 (0 when absent).
func (c Command) NumArg(key string) float64 {
	f, _ := c.Args[key].(float64)
	return f
}

// BoolArg returns the named argument as a bool (false when absent).
func (c Command) BoolArg(key string) bool {
	b, _ := c.Args[key].(bool)
	return b
}

// String renders the command in canonical text form:
// op target k1=v1 k2=v2 with keys sorted.
func (c Command) String() string {
	var sb strings.Builder
	sb.WriteString(c.Op)
	if c.Target != "" {
		sb.WriteByte(' ')
		sb.WriteString(c.Target)
	}
	keys := make([]string, 0, len(c.Args))
	for k := range c.Args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sb.WriteByte(' ')
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(formatValue(c.Args[k]))
	}
	return sb.String()
}

func formatValue(v any) string {
	switch n := v.(type) {
	case string:
		return strconv.Quote(n)
	case float64:
		return strconv.FormatFloat(n, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(n)
	default:
		return strconv.Quote(fmt.Sprintf("%v", n))
	}
}

// Script is an ordered command sequence with an identity.
type Script struct {
	ID       string
	Commands []Command
}

// New creates an empty script.
func New(id string) *Script { return &Script{ID: id} }

// Append adds commands to the script and returns it for chaining.
func (s *Script) Append(cmds ...Command) *Script {
	s.Commands = append(s.Commands, cmds...)
	return s
}

// Len returns the number of commands.
func (s *Script) Len() int { return len(s.Commands) }

// String renders the script, one command per line.
func (s *Script) String() string {
	lines := make([]string, len(s.Commands))
	for i, c := range s.Commands {
		lines[i] = c.String()
	}
	return strings.Join(lines, "\n")
}

// Format renders the script including a header line with its ID, suitable
// for file storage. Parse reverses it.
func Format(s *Script) string {
	var sb strings.Builder
	sb.WriteString("script ")
	sb.WriteString(s.ID)
	sb.WriteByte('\n')
	for _, c := range s.Commands {
		sb.WriteString(c.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Parse reads the textual form produced by Format. Blank lines and lines
// starting with # are ignored.
func Parse(text string) (*Script, error) {
	var s *Script
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "script ") {
			if s != nil {
				return nil, fmt.Errorf("line %d: duplicate script header", lineNo+1)
			}
			s = New(strings.TrimSpace(strings.TrimPrefix(line, "script ")))
			continue
		}
		if s == nil {
			return nil, fmt.Errorf("line %d: command before script header", lineNo+1)
		}
		cmd, err := ParseCommand(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		s.Append(cmd)
	}
	if s == nil {
		return nil, fmt.Errorf("no script header found")
	}
	return s, nil
}

// ParseCommand parses one command in canonical text form.
func ParseCommand(line string) (Command, error) {
	fields, err := splitFields(line)
	if err != nil {
		return Command{}, err
	}
	if len(fields) == 0 {
		return Command{}, fmt.Errorf("empty command")
	}
	cmd := NewCommand(fields[0], "")
	rest := fields[1:]
	if len(rest) > 0 && !strings.Contains(rest[0], "=") {
		cmd.Target = rest[0]
		rest = rest[1:]
	}
	for _, f := range rest {
		k, v, found := strings.Cut(f, "=")
		if !found || k == "" {
			return Command{}, fmt.Errorf("bad argument %q", f)
		}
		if cmd.Args == nil {
			cmd.Args = make(map[string]any)
		}
		cmd.Args[k] = parseValue(v)
	}
	return cmd, nil
}

// splitFields splits on spaces, honouring double-quoted segments.
func splitFields(line string) ([]string, error) {
	var fields []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			fields = append(fields, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == '\\' && inQuote && i+1 < len(line):
			cur.WriteByte(c)
			i++
			cur.WriteByte(line[i])
		case c == ' ' && !inQuote:
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote in %q", line)
	}
	flush()
	return fields, nil
}

// ParseScalar interprets a textual value the way command arguments are
// parsed: quoted strings unquote, "true"/"false" become booleans, numbers
// become float64, anything else stays a string.
func ParseScalar(text string) any { return parseValue(text) }

func parseValue(text string) any {
	if len(text) >= 2 && text[0] == '"' {
		if s, err := strconv.Unquote(text); err == nil {
			return s
		}
		return strings.Trim(text, `"`)
	}
	switch text {
	case "true":
		return true
	case "false":
		return false
	}
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return f
	}
	return text
}

// TraceCap bounds the lines a Trace keeps. Resources record every command
// they execute for as long as they run, so past the cap each new line
// replaces the oldest, and the dropped lines are counted instead of kept.
const TraceCap = 4096

// Trace is a recorded sequence of executed commands in canonical form. The
// behavioural-equivalence experiment compares traces of the model-based and
// handcrafted Broker implementations. It keeps the most recent TraceCap
// lines and counts the ones it dropped.
type Trace struct {
	lines   []string // the kept lines, a ring once TraceCap long
	start   int      // index of the oldest kept line in the ring
	dropped int      // recorded lines the ring no longer keeps
}

// Record appends a command to the trace, dropping the oldest kept line
// once the trace holds TraceCap.
func (t *Trace) Record(c Command) {
	line := c.String()
	if len(t.lines) < TraceCap {
		t.lines = append(t.lines, line)
		return
	}
	t.lines[t.start] = line
	t.start = (t.start + 1) % TraceCap
	t.dropped++
}

// RecordOp is a convenience that records an op/target pair with arguments
// given as alternating key, value pairs.
func (t *Trace) RecordOp(op, target string, kv ...any) {
	c := NewCommand(op, target)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprintf("%v", kv[i])
		}
		c = c.WithArg(key, kv[i+1])
	}
	t.Record(c)
}

// Len returns the number of recorded commands, dropped ones included.
func (t *Trace) Len() int { return t.dropped + len(t.lines) }

// Dropped returns how many of the oldest recorded commands the trace no
// longer keeps.
func (t *Trace) Dropped() int { return t.dropped }

// Reset discards the recorded commands, keeping the capacity. Long-running
// measurements reset between iterations so trace growth does not skew
// timings.
func (t *Trace) Reset() { t.lines, t.start, t.dropped = t.lines[:0], 0, 0 }

// Lines returns a copy of the kept command lines, oldest first.
func (t *Trace) Lines() []string {
	return append(append([]string(nil), t.lines[t.start:]...), t.lines[:t.start]...)
}

// String joins the kept lines, after a first line counting the dropped
// ones if there are any.
func (t *Trace) String() string {
	lines := t.Lines()
	if t.dropped > 0 {
		lines = append([]string{fmt.Sprintf("... %d earlier commands dropped", t.dropped)}, lines...)
	}
	return strings.Join(lines, "\n")
}

// Equal reports whether two traces recorded identical command sequences.
// Traces that dropped lines are equal when they dropped as many and keep
// identical lines.
func (t *Trace) Equal(other *Trace) bool {
	i, _, _ := t.FirstDiff(other)
	return i < 0
}

// FirstDiff returns the index (counted from the first recorded command)
// and the two lines of the first difference, or -1 when the traces are
// equal. A line one trace dropped reads "<dropped>", one past its end
// "<end>". Useful in test failure messages.
func (t *Trace) FirstDiff(other *Trace) (int, string, string) {
	for i := min(t.dropped, other.dropped); i < max(t.Len(), other.Len()); i++ {
		if a, b := t.line(i), other.line(i); a != b {
			return i, a, b
		}
	}
	return -1, "", ""
}

// line returns the i-th recorded command, counted from the first one.
func (t *Trace) line(i int) string {
	switch {
	case i < t.dropped:
		return "<dropped>"
	case i >= t.Len():
		return "<end>"
	}
	return t.lines[(t.start+i-t.dropped)%len(t.lines)]
}
