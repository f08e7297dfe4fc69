// Package core is the service-oriented computing kernel: the paper's
// primary contribution is teaching a development style in which software
// is composed from services with standard interfaces, published in
// directories, and consumed over standard protocols. This package supplies
// that model — typed service descriptors and an in-process dispatcher —
// on which the service host (soc/internal/host, which exposes each
// service over both SOAP and REST with a generated WSDL, and the clients
// that consume them), the repository catalog (soc/internal/services),
// the registry, and the workflow engine are built.
package core

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Type enumerates the wire-level parameter types.
type Type string

const (
	String Type = "string"
	Int    Type = "int"
	Float  Type = "float"
	Bool   Type = "bool"
)

// ErrDefinition reports an invalid service definition.
var ErrDefinition = errors.New("core: invalid service definition")

// ErrBadRequest reports an invocation whose arguments don't satisfy the
// operation signature.
var ErrBadRequest = errors.New("core: bad request")

// ErrNotFound reports an unknown service or operation.
var ErrNotFound = errors.New("core: not found")

// Param is a named, typed parameter of an operation.
type Param struct {
	Name string
	Type Type
	// Doc describes the parameter.
	Doc string
	// Optional marks input parameters that may be omitted (they decode
	// to their zero value).
	Optional bool
}

// Values carries operation arguments and results. Keys are parameter
// names; values are Go values of the kinds corresponding to Type
// (string, int64, float64, bool).
type Values map[string]any

// Handler implements an operation.
type Handler func(ctx context.Context, in Values) (Values, error)

// Operation describes one invokable operation of a service.
type Operation struct {
	Name    string
	Doc     string
	Input   []Param
	Output  []Param
	Handler Handler
	// Idempotent marks operations whose result depends only on their
	// inputs (no observable side effects), making their responses safe to
	// cache and replay. It is an explicit declaration, never inferred.
	Idempotent bool

	// inputIdx/outputIdx are name→param indexes precomputed by
	// AddOperation so Invoke does not rebuild a lookup map per call.
	inputIdx  map[string]*Param
	outputIdx map[string]*Param
}

// Service is a named collection of operations sharing a namespace.
type Service struct {
	Name      string
	Namespace string
	Doc       string
	// Category is the registry taxonomy path, e.g. "security/encryption".
	Category string
	ops      map[string]*Operation
	order    []string
}

var nameRE = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9_]*$`)

// NewService returns an empty service. The name must be an identifier;
// namespace must be non-empty.
func NewService(name, namespace, doc string) (*Service, error) {
	if !nameRE.MatchString(name) {
		return nil, fmt.Errorf("%w: bad service name %q", ErrDefinition, name)
	}
	if namespace == "" {
		return nil, fmt.Errorf("%w: empty namespace for %q", ErrDefinition, name)
	}
	return &Service{Name: name, Namespace: namespace, Doc: doc, ops: make(map[string]*Operation)}, nil
}

// AddOperation registers an operation. Names must be unique identifiers;
// every parameter needs a distinct identifier name and a known type.
func (s *Service) AddOperation(op Operation) error {
	if !nameRE.MatchString(op.Name) {
		return fmt.Errorf("%w: bad operation name %q", ErrDefinition, op.Name)
	}
	if op.Handler == nil {
		return fmt.Errorf("%w: operation %q has no handler", ErrDefinition, op.Name)
	}
	if _, dup := s.ops[op.Name]; dup {
		return fmt.Errorf("%w: duplicate operation %q", ErrDefinition, op.Name)
	}
	for _, params := range [][]Param{op.Input, op.Output} {
		seen := map[string]bool{}
		for _, p := range params {
			if !nameRE.MatchString(p.Name) {
				return fmt.Errorf("%w: operation %q: bad parameter name %q", ErrDefinition, op.Name, p.Name)
			}
			if seen[p.Name] {
				return fmt.Errorf("%w: operation %q: duplicate parameter %q", ErrDefinition, op.Name, p.Name)
			}
			seen[p.Name] = true
			switch p.Type {
			case String, Int, Float, Bool:
			default:
				return fmt.Errorf("%w: operation %q: parameter %q has unknown type %q", ErrDefinition, op.Name, p.Name, p.Type)
			}
		}
	}
	opCopy := op
	opCopy.inputIdx = paramIndex(opCopy.Input)
	opCopy.outputIdx = paramIndex(opCopy.Output)
	s.ops[op.Name] = &opCopy
	s.order = append(s.order, op.Name)
	return nil
}

func paramIndex(params []Param) map[string]*Param {
	idx := make(map[string]*Param, len(params))
	for i := range params {
		idx[params[i].Name] = &params[i]
	}
	return idx
}

// MustAddOperation is AddOperation panicking on error; for package-level
// service construction where a failure is a programming bug.
func (s *Service) MustAddOperation(op Operation) {
	if err := s.AddOperation(op); err != nil {
		panic(err)
	}
}

// Operation returns the named operation.
func (s *Service) Operation(name string) (*Operation, error) {
	op, ok := s.ops[name]
	if !ok {
		return nil, fmt.Errorf("%w: operation %q of service %q", ErrNotFound, name, s.Name)
	}
	return op, nil
}

// Operations returns the operations in registration order.
func (s *Service) Operations() []*Operation {
	out := make([]*Operation, len(s.order))
	for i, name := range s.order {
		out[i] = s.ops[name]
	}
	return out
}

// Invoke validates args against the operation's input signature, calls the
// handler, and validates the result against the output signature.
//
// args is coerced in place and handed to the handler as it is: a value of
// another Go type than its parameter's is replaced, and a missing optional
// input is added (into a fresh map when args is nil). The caller gives
// args up for the call, and neither reads it afterwards as its own
// arguments nor shares it with another call in flight; the handler reads
// its input and does not keep it after it returns.
//
// The result may be the handler's own map: one that already conforms —
// every declared output present, no other key, each value of its type's
// Go representation — is returned as it is, not copied. Callers treat the
// result as read-only, and a handler does not touch a map after returning
// it.
func (s *Service) Invoke(ctx context.Context, opName string, args Values) (Values, error) {
	op, err := s.Operation(opName)
	if err != nil {
		return nil, err
	}
	in, err := coerceValues(args, op.Input, op.inputIdx, args, true)
	if err != nil {
		return nil, fmt.Errorf("%w: %s.%s: %v", ErrBadRequest, s.Name, opName, err)
	}
	out, err := op.Handler(ctx, in)
	if err != nil {
		return nil, err
	}
	if conforms(op.Output, op.outputIdx, out) {
		return out, nil
	}
	result, err := coerceValues(make(Values, len(op.Output)), op.Output, op.outputIdx, out, false)
	if err != nil {
		return nil, fmt.Errorf("core: %s.%s returned invalid output: %v", s.Name, opName, err)
	}
	return result, nil
}

// coerceValues checks vals against the declared params, converting each
// value to its param's Go representation into dst — vals itself, to
// coerce in place — and returns dst, a fresh map if it was nil and a
// param must be filled. When strict, unknown keys are rejected and
// required params must be present; otherwise unknown keys are dropped and
// every missing param is filled with its zero value, as an optional one
// always is. known is the precomputed index over params (see paramIndex);
// nil falls back to a scratch index so the helper stays usable on
// Operations not yet registered. After an error dst may hold values
// already converted.
func coerceValues(dst Values, params []Param, known map[string]*Param, vals Values, strict bool) (Values, error) {
	if known == nil {
		known = paramIndex(params)
	}
	for k, v := range vals {
		p, ok := known[k]
		if !ok {
			if strict {
				return nil, fmt.Errorf("unknown parameter %q", k)
			}
			continue
		}
		cv, err := CoerceValue(p.Type, v)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %v", k, err)
		}
		// In place, this replaces a key of the map being ranged over,
		// which the language defines.
		dst[k] = cv
	}
	for _, p := range params {
		if _, ok := dst[p.Name]; ok {
			continue
		}
		if !p.Optional && strict {
			return nil, fmt.Errorf("missing parameter %q", p.Name)
		}
		if dst == nil {
			dst = make(Values, len(params))
		}
		dst[p.Name] = zeroOf(p.Type)
	}
	return dst, nil
}

// conforms reports whether vals is already what non-strict coerceValues
// would build from it in a fresh map: not nil, every param present, no
// other key, every value of its param's Go type.
func conforms(params []Param, known map[string]*Param, vals Values) bool {
	if vals == nil || len(vals) != len(params) {
		return false
	}
	for k, v := range vals {
		p, ok := known[k]
		if !ok || !isGoType(p.Type, v) {
			return false
		}
	}
	return true
}

// isGoType reports whether v's dynamic type is t's Go representation.
func isGoType(t Type, v any) bool {
	switch v.(type) {
	case string:
		return t == String
	case int64:
		return t == Int
	case float64:
		return t == Float
	case bool:
		return t == Bool
	}
	return false
}

// CoerceValue converts v to the Go representation of t: string, int64,
// float64, or bool. String inputs are parsed; numeric widths are unified.
// A v already of that type is returned as it is.
func CoerceValue(t Type, v any) (any, error) {
	if isGoType(t, v) {
		return v, nil
	}
	switch t {
	case String:
		switch x := v.(type) {
		case fmt.Stringer:
			return x.String(), nil
		case int64:
			return strconv.FormatInt(x, 10), nil
		case int:
			return strconv.Itoa(x), nil
		case float64:
			return strconv.FormatFloat(x, 'g', -1, 64), nil
		case bool:
			return strconv.FormatBool(x), nil
		}
	case Int:
		switch x := v.(type) {
		case int:
			return int64(x), nil
		case int32:
			return int64(x), nil
		case float64:
			if x == float64(int64(x)) {
				return int64(x), nil
			}
			return nil, fmt.Errorf("%v is not an integer", x)
		case string:
			n, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%q is not an int", x)
			}
			return n, nil
		}
	case Float:
		switch x := v.(type) {
		case float32:
			return float64(x), nil
		case int64:
			return float64(x), nil
		case int:
			return float64(x), nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, fmt.Errorf("%q is not a float", x)
			}
			return f, nil
		}
	case Bool:
		switch x := v.(type) {
		case string:
			b, err := strconv.ParseBool(strings.TrimSpace(x))
			if err != nil {
				return nil, fmt.Errorf("%q is not a bool", x)
			}
			return b, nil
		}
	default:
		return nil, fmt.Errorf("unknown type %q", t)
	}
	return nil, fmt.Errorf("cannot convert %T to %s", v, t)
}

func zeroOf(t Type) any {
	switch t {
	case Int:
		return int64(0)
	case Float:
		return float64(0)
	case Bool:
		return false
	default:
		return ""
	}
}

// FormatValue renders a typed value as its lexical (wire) form.
func FormatValue(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	case nil:
		return ""
	default:
		return fmt.Sprint(x)
	}
}

// Values helpers: typed accessors with zero-value fallbacks.

// Str returns the string value at key.
func (v Values) Str(key string) string {
	s, _ := v[key].(string)
	return s
}

// Int returns the int64 value at key.
func (v Values) Int(key string) int64 {
	n, _ := v[key].(int64)
	return n
}

// Float returns the float64 value at key.
func (v Values) Float(key string) float64 {
	f, _ := v[key].(float64)
	return f
}

// Bool returns the bool value at key.
func (v Values) Bool(key string) bool {
	b, _ := v[key].(bool)
	return b
}

// Keys returns the sorted keys.
func (v Values) Keys() []string {
	out := make([]string, 0, len(v))
	for k := range v {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
