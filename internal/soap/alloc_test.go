//go:build !race

package soap

import (
	"net/http"
	"runtime"
	"sync"
	"testing"
)

// Allocation ceilings for the codec hot path, asserted so a regression
// fails `go test`. Each is the value measured on go1.24 plus 10 %.

func allocMessage() Message {
	return Message{
		Operation:  "Echo",
		Namespace:  "http://soc.example/echo",
		Params:     map[string]string{"text": "the quick <brown> fox & friends"},
		ParamOrder: []string{"text"},
	}
}

func TestEncodeAllocCeiling(t *testing.T) {
	m := allocMessage()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Encode(m); err != nil {
			t.Fatal(err)
		}
	})
	// Encode returns a fresh slice, so the envelope buffer itself is the
	// dominant (and unavoidable) allocation. Measured 4.
	if allocs > 4 {
		t.Errorf("Encode allocates %.1f/op, ceiling 4", allocs)
	}
}

// discard is a ResponseWriter that keeps nothing, over one header map.
type discard struct{ h http.Header }

func (d discard) Header() http.Header       { return d.h }
func (discard) WriteHeader(int)             {}
func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestWriteAnswerAllocCeiling: an answer is encoded in a pooled buffer
// and written in one call, allocating nothing in steady state.
func TestWriteAnswerAllocCeiling(t *testing.T) {
	s := NewServer("http://soc.example/echo")
	if err := s.Declare("Echo", "text"); err != nil {
		t.Fatal(err)
	}
	w := discard{h: http.Header{}}
	params := []Param{{"echo", "the quick <brown> fox & friends"}}
	s.WriteAnswer(w, "Echo", params) // warm the buffer pool
	allocs := testing.AllocsPerRun(200, func() { s.WriteAnswer(w, "Echo", params) })
	if allocs > 0 {
		t.Errorf("WriteAnswer allocates %.1f/op in steady state, want 0", allocs)
	}
}

// allocsPerOpParallel is AllocsPerRun's concurrent cousin: workers
// goroutines each run op iters times and the total heap allocation count
// is averaged per op. Interleaved goroutines defeat the put-then-get
// rhythm that makes serial sync.Pool reuse look free, so this is the
// number the contended hot path actually pays.
func allocsPerOpParallel(workers, iters int, op func()) float64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				op()
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(workers*iters)
}

func TestEncodeAllocCeilingParallel(t *testing.T) {
	m := allocMessage()
	allocs := allocsPerOpParallel(8, 500, func() {
		if _, err := Encode(m); err != nil {
			t.Error(err)
		}
	})
	// Measured 4.00: interleaving costs the pools nothing, and one more
	// allocation per op reads 5.
	if allocs > 4.4 {
		t.Errorf("parallel Encode allocates %.2f/op, ceiling 4.4", allocs)
	}
}

func TestDecodeAllocCeilingParallel(t *testing.T) {
	env, err := Encode(allocMessage())
	if err != nil {
		t.Fatal(err)
	}
	allocs := allocsPerOpParallel(8, 500, func() {
		if _, err := DecodeBytes(env); err != nil {
			t.Error(err)
		}
	})
	// Measured 11.01.
	if allocs > 12 {
		t.Errorf("parallel DecodeBytes allocates %.2f/op, ceiling 12", allocs)
	}
}

func TestDecodeAllocCeiling(t *testing.T) {
	env, err := Encode(allocMessage())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeBytes(env); err != nil {
			t.Fatal(err)
		}
	})
	// The returned Message owns fresh maps and strings; everything else
	// (scanner, scratch buffers) is pooled. Measured 11.
	if allocs > 12 {
		t.Errorf("DecodeBytes allocates %.1f/op, ceiling 12", allocs)
	}
}
