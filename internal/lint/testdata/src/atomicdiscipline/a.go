// Package atomicdiscipline is the golden fixture for the
// atomicdiscipline analyzer: a sync/atomic word function on anything but
// the address of a local variable (a field, a package-level variable, a
// pointer handed in) must be flagged; typed atomics and local counters
// bumped from joined goroutines must stay silent.
package atomicdiscipline

import (
	"sync"
	"sync/atomic"
)

type Counter struct {
	n    int64
	hits int64
}

func (c *Counter) Inc() {
	atomic.AddInt64(&c.n, 1) // want `atomic\.AddInt64 on &c\.n, which is not a local variable`
}

// bump is an accessor helper: the word behind p is shared with whoever
// handed it in.
func bump(p *int64) {
	atomic.AddInt64(p, 1) // want `atomic\.AddInt64 on p, which is not a local variable`
}

func (c *Counter) Hit() { bump(&c.hits) }

// flags is a package-level word.
var flags uint32

func setFlag(bit uint32) {
	atomic.OrUint32(&flags, bit) // want `atomic\.OrUint32 on &flags`
}

// A field of a local struct is still a field: the struct can be shared.
func localStruct() int64 {
	var s struct{ n int64 }
	atomic.StoreInt64(&s.n, 1) // want `atomic\.StoreInt64 on &s\.n`
	return s.n
}

// Gauge uses a typed atomic field: silent.
type Gauge struct{ v atomic.Int64 }

func (g *Gauge) Set(x int64) { g.v.Store(x) }

func (g *Gauge) Get() int64 { return g.v.Load() }

// Config is swapped whole through a typed atomic pointer: silent.
type Config struct{ Name string }

type Holder struct{ cur atomic.Pointer[Config] }

func (h *Holder) Swap(c *Config) *Config { return h.cur.Swap(c) }

// Plain never touches atomics: silent.
type Plain struct{ n int64 }

func (p *Plain) Inc() { p.n++ }

// countEven bumps a local counter and a local array element from
// goroutines it joins before reading them plainly: silent.
func countEven(xs []int) (int64, [2]int32) {
	var n int64
	var parity [2]int32
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			atomic.AddInt32(&parity[x%2], 1)
			if x%2 == 0 {
				atomic.AddInt64(&n, 1)
			}
		}()
	}
	wg.Wait()
	return n, parity
}
