package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func addService(t *testing.T) *Service {
	t.Helper()
	svc, err := NewService("Calc", "http://soc.example/calc", "arithmetic")
	if err != nil {
		t.Fatal(err)
	}
	err = svc.AddOperation(Operation{
		Name:   "Add",
		Doc:    "adds two integers",
		Input:  []Param{{Name: "a", Type: Int}, {Name: "b", Type: Int}},
		Output: []Param{{Name: "sum", Type: Int}},
		Handler: func(_ context.Context, in Values) (Values, error) {
			return Values{"sum": in.Int("a") + in.Int("b")}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := NewService("", "ns", ""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewService("9bad", "ns", ""); err == nil {
		t.Error("bad identifier accepted")
	}
	if _, err := NewService("Ok", "", ""); err == nil {
		t.Error("empty namespace accepted")
	}
}

func TestAddOperationValidation(t *testing.T) {
	svc, _ := NewService("S", "ns", "")
	h := func(context.Context, Values) (Values, error) { return nil, nil }
	cases := []struct {
		name string
		op   Operation
	}{
		{"bad name", Operation{Name: "1op", Handler: h}},
		{"nil handler", Operation{Name: "Op"}},
		{"bad param name", Operation{Name: "Op", Handler: h, Input: []Param{{Name: "bad-name", Type: String}}}},
		{"dup param", Operation{Name: "Op", Handler: h, Input: []Param{{Name: "a", Type: String}, {Name: "a", Type: Int}}}},
		{"bad type", Operation{Name: "Op", Handler: h, Input: []Param{{Name: "a", Type: "blob"}}}},
	}
	for _, c := range cases {
		if err := svc.AddOperation(c.op); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if err := svc.AddOperation(Operation{Name: "Op", Handler: h}); err != nil {
		t.Fatalf("valid op rejected: %v", err)
	}
	if err := svc.AddOperation(Operation{Name: "Op", Handler: h}); err == nil {
		t.Error("duplicate op accepted")
	}
}

func TestInvoke(t *testing.T) {
	svc := addService(t)
	out, err := svc.Invoke(context.Background(), "Add", Values{"a": int64(2), "b": int64(3)})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if out.Int("sum") != 5 {
		t.Errorf("sum = %d", out.Int("sum"))
	}
}

func TestInvokeCoercesStringsAndFloats(t *testing.T) {
	svc := addService(t)
	// Wire formats: strings (SOAP) and float64 (JSON).
	out, err := svc.Invoke(context.Background(), "Add", Values{"a": "40", "b": float64(2)})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if out.Int("sum") != 42 {
		t.Errorf("sum = %d", out.Int("sum"))
	}
}

func TestInvokeErrors(t *testing.T) {
	svc := addService(t)
	ctx := context.Background()
	if _, err := svc.Invoke(ctx, "Missing", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing op: %v", err)
	}
	if _, err := svc.Invoke(ctx, "Add", Values{"a": int64(1)}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("missing param: %v", err)
	}
	if _, err := svc.Invoke(ctx, "Add", Values{"a": int64(1), "b": int64(2), "c": int64(3)}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("extra param: %v", err)
	}
	if _, err := svc.Invoke(ctx, "Add", Values{"a": "NaN", "b": int64(2)}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("uncoercible param: %v", err)
	}
}

func TestInvokeOptionalParams(t *testing.T) {
	svc, _ := NewService("Greeter", "ns", "")
	svc.MustAddOperation(Operation{
		Name:   "Greet",
		Input:  []Param{{Name: "name", Type: String}, {Name: "loud", Type: Bool, Optional: true}},
		Output: []Param{{Name: "greeting", Type: String}},
		Handler: func(_ context.Context, in Values) (Values, error) {
			g := "hello " + in.Str("name")
			if in.Bool("loud") {
				g = strings.ToUpper(g)
			}
			return Values{"greeting": g}, nil
		},
	})
	out, err := svc.Invoke(context.Background(), "Greet", Values{"name": "ada"})
	if err != nil || out.Str("greeting") != "hello ada" {
		t.Errorf("optional omitted: %v %v", out, err)
	}
	out, err = svc.Invoke(context.Background(), "Greet", Values{"name": "ada", "loud": true})
	if err != nil || out.Str("greeting") != "HELLO ADA" {
		t.Errorf("optional given: %v %v", out, err)
	}
}

func TestInvokeOutputValidation(t *testing.T) {
	svc, _ := NewService("Bad", "ns", "")
	svc.MustAddOperation(Operation{
		Name:   "Wrong",
		Output: []Param{{Name: "n", Type: Int}},
		Handler: func(context.Context, Values) (Values, error) {
			return Values{"n": "not a number at all"}, nil
		},
	})
	if _, err := svc.Invoke(context.Background(), "Wrong", nil); err == nil {
		t.Error("invalid output accepted")
	}
	// Unknown output keys are dropped, not errors (lenient on output).
	svc.MustAddOperation(Operation{
		Name:   "Extra",
		Output: []Param{{Name: "n", Type: Int}},
		Handler: func(context.Context, Values) (Values, error) {
			return Values{"n": int64(1), "debug": "x"}, nil
		},
	})
	out, err := svc.Invoke(context.Background(), "Extra", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if _, ok := out["debug"]; ok {
		t.Error("undeclared output leaked")
	}
}

func TestHandlerErrorPassthrough(t *testing.T) {
	sentinel := errors.New("domain failure")
	svc, _ := NewService("E", "ns", "")
	svc.MustAddOperation(Operation{
		Name:    "Fail",
		Handler: func(context.Context, Values) (Values, error) { return nil, sentinel },
	})
	if _, err := svc.Invoke(context.Background(), "Fail", nil); !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestOperationsOrder(t *testing.T) {
	svc, _ := NewService("S", "ns", "")
	h := func(context.Context, Values) (Values, error) { return nil, nil }
	for _, n := range []string{"Zeta", "Alpha", "Mid"} {
		svc.MustAddOperation(Operation{Name: n, Handler: h})
	}
	ops := svc.Operations()
	if len(ops) != 3 || ops[0].Name != "Zeta" || ops[2].Name != "Mid" {
		t.Errorf("order = %v", []string{ops[0].Name, ops[1].Name, ops[2].Name})
	}
}

func TestCoerceValue(t *testing.T) {
	cases := []struct {
		t    Type
		in   any
		want any
	}{
		{String, "x", "x"},
		{String, int64(5), "5"},
		{String, 3.5, "3.5"},
		{String, true, "true"},
		{Int, int64(7), int64(7)},
		{Int, 7, int64(7)},
		{Int, int32(7), int64(7)},
		{Int, float64(7), int64(7)},
		{Int, " 7 ", int64(7)},
		{Float, 2.5, 2.5},
		{Float, float32(0.5), 0.5},
		{Float, int64(2), 2.0},
		{Float, "2.5", 2.5},
		{Bool, true, true},
		{Bool, "true", true},
		{Bool, "0", false},
	}
	for _, c := range cases {
		got, err := CoerceValue(c.t, c.in)
		if err != nil {
			t.Errorf("CoerceValue(%s, %v): %v", c.t, c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("CoerceValue(%s, %v) = %v (%T), want %v", c.t, c.in, got, got, c.want)
		}
	}
	bad := []struct {
		t  Type
		in any
	}{
		{Int, 7.5}, {Int, "x"}, {Float, "pi"}, {Bool, "maybe"}, {Bool, 1.0},
		{Type("enum"), "x"}, {Int, struct{}{}},
	}
	for _, c := range bad {
		if _, err := CoerceValue(c.t, c.in); err == nil {
			t.Errorf("CoerceValue(%s, %v) accepted", c.t, c.in)
		}
	}
}

func TestFormatValueRoundTripProperty(t *testing.T) {
	propInt := func(n int64) bool {
		v, err := CoerceValue(Int, FormatValue(n))
		return err == nil && v == n
	}
	if err := quick.Check(propInt, nil); err != nil {
		t.Errorf("int round trip: %v", err)
	}
	propBool := func(b bool) bool {
		v, err := CoerceValue(Bool, FormatValue(b))
		return err == nil && v == b
	}
	if err := quick.Check(propBool, nil); err != nil {
		t.Errorf("bool round trip: %v", err)
	}
}

func TestValuesAccessors(t *testing.T) {
	v := Values{"s": "x", "i": int64(3), "f": 2.5, "b": true}
	if v.Str("s") != "x" || v.Int("i") != 3 || v.Float("f") != 2.5 || !v.Bool("b") {
		t.Errorf("accessors wrong: %v", v)
	}
	if v.Str("missing") != "" || v.Int("s") != 0 {
		t.Error("fallbacks wrong")
	}
	keys := v.Keys()
	if len(keys) != 4 || keys[0] != "b" {
		t.Errorf("keys = %v", keys)
	}
}

func TestMustAddOperationPanics(t *testing.T) {
	svc, _ := NewService("S", "ns", "")
	defer func() {
		if recover() == nil {
			t.Error("MustAddOperation did not panic")
		}
	}()
	svc.MustAddOperation(Operation{Name: "bad name"})
}

// A handler's result that does not conform — an undeclared key, a value
// of another Go type than its parameter's, a missing output — is coerced
// into a fresh map, and the handler's own map is left as it was.
func TestInvokeCopiesNonconformingOutput(t *testing.T) {
	for _, tc := range []struct {
		name      string
		out, want Values
	}{
		{"undeclared key", Values{"n": int64(2), "extra": "x"}, Values{"n": int64(2)}},
		{"other Go type", Values{"n": 2}, Values{"n": int64(2)}},
		{"lexical form", Values{"n": "2"}, Values{"n": int64(2)}},
		{"missing output", Values{}, Values{"n": int64(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := Values{}
			for k, v := range tc.out {
				out[k] = v
			}
			svc, err := NewService("Copy", "http://soc.example/copy", "")
			if err != nil {
				t.Fatal(err)
			}
			svc.MustAddOperation(Operation{
				Name:    "Get",
				Output:  []Param{{Name: "n", Type: Int}},
				Handler: func(context.Context, Values) (Values, error) { return out, nil },
			})
			got, err := svc.Invoke(context.Background(), "Get", nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Invoke = %#v, want %#v", got, tc.want)
			}
			if !reflect.DeepEqual(out, tc.out) {
				t.Errorf("the handler's map became %#v, was %#v", out, tc.out)
			}
			got["n"] = int64(99)
			if !reflect.DeepEqual(out, tc.out) {
				t.Error("the result shares the handler's map")
			}
		})
	}
	// A nil result of an operation with no outputs still comes back as an
	// empty map, which encodes as {} where nil would be null.
	svc, err := NewService("Nil", "http://soc.example/nil", "")
	if err != nil {
		t.Fatal(err)
	}
	svc.MustAddOperation(Operation{Name: "Do", Handler: func(context.Context, Values) (Values, error) { return nil, nil }})
	if got, err := svc.Invoke(context.Background(), "Do", nil); err != nil || got == nil {
		t.Fatalf("Invoke = %#v, %v; want an empty map", got, err)
	}
}

// CoerceValue returns a value already of its type's Go representation as
// it is, and converts the others.
func TestCoerceValueIdentity(t *testing.T) {
	for _, tc := range []struct {
		t    Type
		in   any
		want any
	}{
		{String, "s", "s"}, {Int, int64(7), int64(7)}, {Float, 1.5, 1.5}, {Bool, true, true},
		{String, int64(7), "7"}, {Int, 7, int64(7)}, {Float, int64(2), 2.0}, {Bool, "true", true},
	} {
		got, err := CoerceValue(tc.t, tc.in)
		if err != nil || got != tc.want {
			t.Errorf("CoerceValue(%s, %#v) = %#v, %v; want %#v", tc.t, tc.in, got, err, tc.want)
		}
	}
	if _, err := CoerceValue(Int, "x"); err == nil {
		t.Error(`CoerceValue(int, "x") succeeded`)
	}
}

// Invoke coerces the caller's args in place and hands the handler that
// same map: a value of another Go type is replaced in it, one already of
// its type is left as it was, and a missing optional input is added.
func TestInvokeCoercesArgsInPlace(t *testing.T) {
	svc, _ := NewService("Place", "ns", "")
	var got Values
	svc.MustAddOperation(Operation{
		Name: "Get",
		Input: []Param{
			{Name: "n", Type: Int}, {Name: "s", Type: String},
			{Name: "opt", Type: Float, Optional: true},
		},
		Output: []Param{{Name: "n", Type: Int}},
		Handler: func(_ context.Context, in Values) (Values, error) {
			got = in
			return Values{"n": in.Int("n")}, nil
		},
	})
	args := Values{"n": float64(300), "s": "x"}
	out, err := svc.Invoke(context.Background(), "Get", args)
	if err != nil || out.Int("n") != 300 {
		t.Fatalf("Invoke = %v, %v", out, err)
	}
	if reflect.ValueOf(got).Pointer() != reflect.ValueOf(args).Pointer() {
		t.Error("the handler got another map than the caller's")
	}
	if want := (Values{"n": int64(300), "s": "x", "opt": float64(0)}); !reflect.DeepEqual(args, want) {
		t.Errorf("args after Invoke = %#v, want %#v", args, want)
	}
}

// A nil args map becomes a fresh one when an optional input must be
// filled; with every input optional, nil is a valid call.
func TestInvokeNilArgsWithOptionalInput(t *testing.T) {
	svc, _ := NewService("Opt", "ns", "")
	svc.MustAddOperation(Operation{
		Name:   "Get",
		Input:  []Param{{Name: "loud", Type: Bool, Optional: true}, {Name: "n", Type: Int, Optional: true}},
		Output: []Param{{Name: "in", Type: String}},
		Handler: func(_ context.Context, in Values) (Values, error) {
			return Values{"in": fmt.Sprint(in.Bool("loud"), len(in), in["n"])}, nil
		},
	})
	out, err := svc.Invoke(context.Background(), "Get", nil)
	if err != nil || out.Str("in") != "false 2 0" {
		t.Fatalf("Invoke(nil) = %v, %v; want the two zero inputs", out, err)
	}
}

// The strict input checks read as they always did, and a refused call
// never reaches the handler.
func TestInvokeStrictErrorsUnchanged(t *testing.T) {
	svc, _ := NewService("Calc", "ns", "")
	called := false
	svc.MustAddOperation(Operation{
		Name:   "Add",
		Input:  []Param{{Name: "a", Type: Int}, {Name: "b", Type: Int}},
		Output: []Param{{Name: "sum", Type: Int}},
		Handler: func(_ context.Context, in Values) (Values, error) {
			called = true
			return Values{"sum": in.Int("a") + in.Int("b")}, nil
		},
	})
	for _, tc := range []struct {
		args Values
		want string
	}{
		{nil, `core: bad request: Calc.Add: missing parameter "a"`},
		{Values{"a": int64(1)}, `core: bad request: Calc.Add: missing parameter "b"`},
		{Values{"a": "1", "b": int64(2), "c": int64(3)}, `core: bad request: Calc.Add: unknown parameter "c"`},
		{Values{"a": "NaN", "b": int64(2)}, `core: bad request: Calc.Add: parameter "a": "NaN" is not an int`},
		{Values{"a": 1.5, "b": int64(2)}, `core: bad request: Calc.Add: parameter "a": 1.5 is not an integer`},
		{Values{"a": true, "b": int64(2)}, `core: bad request: Calc.Add: parameter "a": cannot convert bool to int`},
	} {
		_, err := svc.Invoke(context.Background(), "Add", tc.args)
		if !errors.Is(err, ErrBadRequest) || err.Error() != tc.want {
			t.Errorf("Invoke(%v) = %v, want %s", tc.args, err, tc.want)
		}
	}
	if called {
		t.Error("a refused call reached the handler")
	}
}

// Concurrent Invokes, each with its own args map, share only the
// service: under -race, coercion in place touches no shared state.
func TestInvokeConcurrentOwnArgs(t *testing.T) {
	svc := addService(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				args := Values{"a": strconv.Itoa(i), "b": float64(g)}
				out, err := svc.Invoke(context.Background(), "Add", args)
				if err != nil || out.Int("sum") != int64(i+g) || args["a"] != int64(i) {
					t.Errorf("Invoke = %v, %v; args %v", out, err, args)
					return
				}
			}
		}()
	}
	wg.Wait()
}
