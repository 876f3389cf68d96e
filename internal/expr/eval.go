package expr

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Scope resolves identifiers during evaluation.
type Scope interface {
	// Lookup returns the value bound to name and whether it exists.
	Lookup(name string) (any, bool)
}

// MapScope is a Scope backed by a map. Dotted names are looked up verbatim
// first; when absent, the first segment is resolved and the remainder is
// looked up on a nested MapScope/map value.
type MapScope map[string]any

var _ Scope = MapScope(nil)

// Lookup implements Scope.
func (s MapScope) Lookup(name string) (any, bool) {
	if v, ok := s[name]; ok {
		return v, true
	}
	head, rest, found := strings.Cut(name, ".")
	if !found {
		return nil, false
	}
	switch sub := s[head].(type) {
	case MapScope:
		return sub.Lookup(rest)
	case map[string]any:
		return MapScope(sub).Lookup(rest)
	default:
		return nil, false
	}
}

// Func is a host function callable from expressions.
type Func func(args []any) (any, error)

// Env bundles a Scope with a function table.
type Env struct {
	Scope Scope
	Funcs map[string]Func
}

// EvalError reports an evaluation failure.
type EvalError struct {
	Node Node
	Msg  string
}

// Error implements error.
func (e *EvalError) Error() string {
	return fmt.Sprintf("eval %s: %s", e.Node, e.Msg)
}

// ErrUnboundIdentifier is wrapped by evaluation errors caused by unresolved
// names, so policy engines can distinguish "unknown variable" from type
// errors.
var ErrUnboundIdentifier = errors.New("unbound identifier")

// Eval evaluates the node in env. Results are float64, string or bool.
func Eval(n Node, env Env) (any, error) {
	switch node := n.(type) {
	case *Lit:
		return node.Value, nil
	case *Ident:
		if env.Scope != nil {
			if v, ok := env.Scope.Lookup(node.Name); ok {
				return normalize(v), nil
			}
		}
		return nil, fmt.Errorf("eval %s: %w", node.Name, ErrUnboundIdentifier)
	case *Unary:
		x, err := Eval(node.X, env)
		if err != nil {
			return nil, err
		}
		switch node.Op {
		case "!":
			b, ok := x.(bool)
			if !ok {
				return nil, &EvalError{Node: n, Msg: fmt.Sprintf("! wants bool, got %T", x)}
			}
			return !b, nil
		case "-":
			f, ok := x.(float64)
			if !ok {
				return nil, &EvalError{Node: n, Msg: fmt.Sprintf("- wants number, got %T", x)}
			}
			return -f, nil
		default:
			return nil, &EvalError{Node: n, Msg: "unknown unary operator"}
		}
	case *Binary:
		return evalBinary(node, env)
	case *Call:
		fn, ok := env.Funcs[node.Fn]
		if !ok {
			return nil, &EvalError{Node: n, Msg: fmt.Sprintf("unknown function %q", node.Fn)}
		}
		args := make([]any, len(node.Args))
		for i, a := range node.Args {
			v, err := Eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		out, err := fn(args)
		if err != nil {
			return nil, &EvalError{Node: n, Msg: err.Error()}
		}
		return normalize(out), nil
	default:
		return nil, &EvalError{Node: n, Msg: "unknown node type"}
	}
}

func evalBinary(node *Binary, env Env) (any, error) {
	// Short-circuit boolean connectives.
	switch node.Op {
	case "&&", "||":
		l, err := Eval(node.L, env)
		if err != nil {
			return nil, err
		}
		lb, ok := l.(bool)
		if !ok {
			return nil, &EvalError{Node: node, Msg: fmt.Sprintf("%s wants bool operands, got %T", node.Op, l)}
		}
		if node.Op == "&&" && !lb {
			return false, nil
		}
		if node.Op == "||" && lb {
			return true, nil
		}
		r, err := Eval(node.R, env)
		if err != nil {
			return nil, err
		}
		rb, ok := r.(bool)
		if !ok {
			return nil, &EvalError{Node: node, Msg: fmt.Sprintf("%s wants bool operands, got %T", node.Op, r)}
		}
		return rb, nil
	}

	l, err := Eval(node.L, env)
	if err != nil {
		return nil, err
	}
	r, err := Eval(node.R, env)
	if err != nil {
		return nil, err
	}

	switch node.Op {
	case "==":
		return looseEqual(l, r), nil
	case "!=":
		return !looseEqual(l, r), nil
	}

	// String concatenation and comparison.
	if ls, ok := l.(string); ok {
		rs, ok := r.(string)
		if !ok {
			return nil, &EvalError{Node: node, Msg: fmt.Sprintf("mixed operand types %T and %T", l, r)}
		}
		switch node.Op {
		case "+":
			return ls + rs, nil
		case "<":
			return ls < rs, nil
		case "<=":
			return ls <= rs, nil
		case ">":
			return ls > rs, nil
		case ">=":
			return ls >= rs, nil
		default:
			return nil, &EvalError{Node: node, Msg: fmt.Sprintf("operator %s not defined on strings", node.Op)}
		}
	}

	lf, lok := l.(float64)
	rf, rok := r.(float64)
	if !lok || !rok {
		return nil, &EvalError{Node: node, Msg: fmt.Sprintf("operator %s wants numbers, got %T and %T", node.Op, l, r)}
	}
	switch node.Op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, &EvalError{Node: node, Msg: "division by zero"}
		}
		return lf / rf, nil
	case "%":
		if rf == 0 {
			return nil, &EvalError{Node: node, Msg: "modulo by zero"}
		}
		return math.Mod(lf, rf), nil
	case "<":
		return lf < rf, nil
	case "<=":
		return lf <= rf, nil
	case ">":
		return lf > rf, nil
	case ">=":
		return lf >= rf, nil
	default:
		return nil, &EvalError{Node: node, Msg: fmt.Sprintf("unknown operator %s", node.Op)}
	}
}

// looseEqual compares values after numeric normalisation.
func looseEqual(l, r any) bool { return normalize(l) == normalize(r) }

// normalize widens numeric types to float64 so scope values set as int work
// naturally in expressions.
func normalize(v any) any {
	switch n := v.(type) {
	case int:
		return float64(n)
	case int32:
		return float64(n)
	case int64:
		return float64(n)
	case float32:
		return float64(n)
	case uint:
		return float64(n)
	default:
		return v
	}
}

// EvalBool evaluates n and asserts a boolean result.
func EvalBool(n Node, env Env) (bool, error) {
	v, err := Eval(n, env)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	if !ok {
		return false, &EvalError{Node: n, Msg: fmt.Sprintf("want bool result, got %T", v)}
	}
	return b, nil
}

// EvalNumber evaluates n and asserts a numeric result.
func EvalNumber(n Node, env Env) (float64, error) {
	v, err := Eval(n, env)
	if err != nil {
		return 0, err
	}
	f, ok := v.(float64)
	if !ok {
		return 0, &EvalError{Node: n, Msg: fmt.Sprintf("want number result, got %T", v)}
	}
	return f, nil
}

// StdFuncs returns the standard function table available to all MD-DSM
// expressions: min, max, abs, len, contains, floor, ceil. Every caller
// gets the same table, built once; it is read-only and must not be
// modified.
func StdFuncs() map[string]Func { return stdFuncs }

var stdFuncs = map[string]Func{
	"min": func(args []any) (any, error) {
		return foldNums("min", args, math.Min)
	},
	"max": func(args []any) (any, error) {
		return foldNums("max", args, math.Max)
	},
	"abs": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, errors.New("abs wants 1 argument")
		}
		f, ok := normalize(args[0]).(float64)
		if !ok {
			return nil, fmt.Errorf("abs wants a number, got %T", args[0])
		}
		return math.Abs(f), nil
	},
	"len": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, errors.New("len wants 1 argument")
		}
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("len wants a string, got %T", args[0])
		}
		return float64(len(s)), nil
	},
	"contains": func(args []any) (any, error) {
		if len(args) != 2 {
			return nil, errors.New("contains wants 2 arguments")
		}
		s, ok1 := args[0].(string)
		sub, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, errors.New("contains wants string arguments")
		}
		return strings.Contains(s, sub), nil
	},
	"floor": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, errors.New("floor wants 1 argument")
		}
		f, ok := normalize(args[0]).(float64)
		if !ok {
			return nil, fmt.Errorf("floor wants a number, got %T", args[0])
		}
		return math.Floor(f), nil
	},
	"ceil": func(args []any) (any, error) {
		if len(args) != 1 {
			return nil, errors.New("ceil wants 1 argument")
		}
		f, ok := normalize(args[0]).(float64)
		if !ok {
			return nil, fmt.Errorf("ceil wants a number, got %T", args[0])
		}
		return math.Ceil(f), nil
	},
}

func foldNums(name string, args []any, f func(a, b float64) float64) (any, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("%s wants at least 1 argument", name)
	}
	acc, ok := normalize(args[0]).(float64)
	if !ok {
		return nil, fmt.Errorf("%s wants numbers, got %T", name, args[0])
	}
	for _, a := range args[1:] {
		v, ok := normalize(a).(float64)
		if !ok {
			return nil, fmt.Errorf("%s wants numbers, got %T", name, a)
		}
		acc = f(acc, v)
	}
	return acc, nil
}
