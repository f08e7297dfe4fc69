package host

import (
	"context"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	//soclint:ignore unsafeimport compares two strings' data pointers, read only, to tell a borrowed name from a copy
	"unsafe"

	"soc/internal/core"
)

// answering is a client whose every REST call is answered 200 with the
// next of answers, the last one over and over.
func answering(answers ...string) *Client {
	var n atomic.Int64
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if r.Body != nil {
			_ = r.Body.Close()
		}
		i := min(int(n.Add(1))-1, len(answers)-1)
		return &http.Response{
			StatusCode: http.StatusOK,
			Header:     http.Header{"Content-Type": {"application/json"}},
			Body:       io.NopCloser(strings.NewReader(answers[i])),
		}, nil
	})
	return &Client{BaseURL: "http://answers.test", HTTPClient: &http.Client{Transport: rt}}
}

// sameString reports whether a and b share their bytes: one borrowed
// from the other, not a copy.
func sameString(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

// An endpoint learns the names of its first good answer and lends them to
// every later decode; an answer whose key set changes decodes right, a
// name it did not learn or one spelled with an escape being copied.
func TestClientLearnsAnswerNames(t *testing.T) {
	c := answering(`{"a":1,"b":"x"}`, `{"c":true}`, `{"a":2,"\u0062":"y","c":null}`)
	ctx := context.Background()
	for i, want := range []core.Values{
		{"a": 1.0, "b": "x"},
		{"c": true},
		{"a": 2.0, "b": "y", "c": nil},
	} {
		got, err := c.Call(ctx, "S", "Op", nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d = %#v, %v; want %#v", i, got, err, want)
		}
		ep, _ := c.binding().endpoint("S", "Op", "")
		learned := ep.answer.Load()
		if learned == nil || !reflect.DeepEqual(*learned, map[string]string{"a": "a", "b": "b"}) {
			t.Fatalf("after call %d the endpoint learned %v, want a and b", i, learned)
		}
		if i == 2 {
			for k := range got {
				if k == "a" && !sameString(k, (*learned)["a"]) {
					t.Error(`the answer's "a" is a copy, not the learned name`)
				}
			}
		}
	}
}

// An answer with no keys teaches nothing; the first with keys does.
func TestClientLearnsFromFirstAnswerWithNames(t *testing.T) {
	c := answering(`null`, `{}`, `{"z":1}`)
	for i := 0; i < 3; i++ {
		if _, err := c.Call(context.Background(), "S", "Op", nil); err != nil {
			t.Fatal(err)
		}
	}
	ep, _ := c.binding().endpoint("S", "Op", "")
	if learned := ep.answer.Load(); learned == nil || !reflect.DeepEqual(*learned, map[string]string{"z": "z"}) {
		t.Fatalf("learned %v, want z", learned)
	}
}

// The names learned are bounded and plainly spelled: a name JSON writes
// with an escape is never looked up by its raw bytes, so it is not kept.
func TestClientLearnedNamesBounded(t *testing.T) {
	var b strings.Builder
	b.WriteString(`{"<":1`)
	for i := 0; i < 2*maxAnswerNames; i++ {
		b.WriteString(`,"k` + strings.Repeat("x", i) + `":1`)
	}
	b.WriteString("}")
	c := answering(b.String())
	if _, err := c.Call(context.Background(), "S", "Op", nil); err != nil {
		t.Fatal(err)
	}
	ep, _ := c.binding().endpoint("S", "Op", "")
	learned := *ep.answer.Load()
	if len(learned) != maxAnswerNames {
		t.Errorf("learned %d names, bound %d", len(learned), maxAnswerNames)
	}
	if _, ok := learned["<"]; ok {
		t.Error("learned a name JSON escapes")
	}
}

// First answers arriving together each decode right, and one table wins.
func TestClientConcurrentFirstAnswers(t *testing.T) {
	c := answering(`{"a":1,"b":"x"}`)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := c.Call(context.Background(), "S", "Op", nil)
				if err != nil || !reflect.DeepEqual(got, core.Values{"a": 1.0, "b": "x"}) {
					t.Errorf("Call = %#v, %v", got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	ep, _ := c.binding().endpoint("S", "Op", "")
	if learned := ep.answer.Load(); learned == nil || len(*learned) != 2 {
		t.Fatalf("learned %v, want a and b", learned)
	}
}
