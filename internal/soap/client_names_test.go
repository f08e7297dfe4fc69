package soap

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"soc/internal/telemetry"

	//soclint:ignore unsafeimport compares two strings' data pointers, read only, to tell a borrowed name from a copy
	"unsafe"
)

// answering is a route to Op at answersURL in ns, and a client over which
// its every call is answered with the next of answers' parameters, the
// last one over and over, in an "OpResponse" element of ns.
func answering(t *testing.T, ns string, answers ...[]Param) (*Route, *http.Client) {
	t.Helper()
	var n atomic.Int64
	rt := roundTrip(func(r *http.Request) (*http.Response, error) {
		if r.Body != nil {
			_ = r.Body.Close()
		}
		i := min(int(n.Add(1))-1, len(answers)-1)
		env, err := appendEnvelope(nil, ns, "OpResponse", nil, answers[i])
		if err != nil {
			t.Error(err)
		}
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": {ContentType}},
			Body:       io.NopCloser(bytes.NewReader(env)),
		}, nil
	})
	op, err := NewRoute(answersURL, ns, "Op")
	if err != nil {
		t.Fatal(err)
	}
	return op, &http.Client{Transport: rt}
}

type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

const answersURL, answersNS = "http://answers.test/soap", "http://soc.example/answers"

// A route learns the parameter names of its first good answer and lends
// them to every later decode; an answer whose names change decodes right,
// a name it did not learn being copied.
func TestClientLearnsAnswerNames(t *testing.T) {
	op, hc := answering(t, answersNS,
		[]Param{{"a", "1"}, {"b", "x"}},
		[]Param{{"c", "true"}},
		[]Param{{"a", "2"}, {"c", "y"}})
	ctx := context.Background()
	for i, want := range []map[string]string{
		{"a": "1", "b": "x"},
		{"c": "true"},
		{"a": "2", "c": "y"},
	} {
		got, err := op.Call(ctx, hc, telemetry.CallTrace{}, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d = %v, %v; want %v", i, got, err, want)
		}
		learned := op.learned.Load()
		wantNames := map[string]string{"OpResponse": "OpResponse", "a": "a", "b": "b"}
		if learned == nil || !reflect.DeepEqual(learned.known, wantNames) || learned.ns != answersNS {
			t.Fatalf("after call %d the route learned %v, want %v", i, learned, wantNames)
		}
		if i == 2 {
			for k := range got {
				if k == "a" && unsafe.StringData(k) != unsafe.StringData(learned.known["a"]) {
					t.Error(`the answer's "a" is a copy, not the learned name`)
				}
			}
		}
	}
}

// A fault, or an answer with no parameters, teaches nothing; the number
// of names learned is bounded.
func TestClientLearnedNamesBounded(t *testing.T) {
	var many []Param
	for _, c := range "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" {
		many = append(many, Param{string(c), "1"})
	}
	op, hc := answering(t, answersNS, nil, many)
	ctx := context.Background()
	if _, err := op.Call(ctx, hc, telemetry.CallTrace{}, nil); err != nil {
		t.Fatal(err)
	}
	if learned := op.learned.Load(); learned != nil {
		t.Fatalf("an answer with no parameters taught %v", learned.known)
	}
	got, err := op.Call(ctx, hc, telemetry.CallTrace{}, nil)
	if err != nil || len(got) != len(many) {
		t.Fatalf("call = %d parameters, %v; want %d", len(got), err, len(many))
	}
	if learned := op.learned.Load(); learned == nil || len(learned.known) != 1+maxAnswerNames {
		t.Fatalf("learned %v, want the response name and %d parameters", learned, maxAnswerNames)
	}
}

// First answers arriving together each decode right, and one table wins.
func TestClientConcurrentFirstAnswers(t *testing.T) {
	op, hc := answering(t, answersNS, []Param{{"a", "1"}, {"b", "x"}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := op.Call(context.Background(), hc, telemetry.CallTrace{}, nil)
				if err != nil || !reflect.DeepEqual(got, map[string]string{"a": "1", "b": "x"}) {
					t.Errorf("Call = %v, %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if learned := op.learned.Load(); learned == nil || len(learned.known) != 3 {
		t.Fatalf("learned %v, want OpResponse, a and b", learned)
	}
}
