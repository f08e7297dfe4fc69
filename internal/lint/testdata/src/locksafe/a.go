// Package locksafe is a golden-file fixture for the locksafe analyzer:
// no blocking while a mutex is held. (Lock copies are go vet's.)
package locksafe

import (
	"net/http"
	"sync"
	"time"

	"soc/internal/callplane"
)

type counter struct {
	mu sync.Mutex
	n  int
}

func sleepUnderLock(c *counter) {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding c.mu`
	c.mu.Unlock()
}

func sendUnderLock(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch <- c.n // want `channel send while holding c.mu`
}

func exchangeUnderLock(c *counter, hc *http.Client, req *http.Request) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := callplane.Do(hc, req) // want `callplane.Do while holding c.mu`
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

func recvUnderLock(c *counter, ch chan int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return <-ch // want `channel receive while holding c.mu`
}

func recvParamUnderLock(c *counter, in <-chan int) {
	c.mu.Lock()
	c.n = <-in // want `channel receive while holding c.mu`
	c.mu.Unlock()
}

func timerUnderLock(c *counter, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	<-time.After(d) // want `channel receive while holding c.mu`
}

func selectUnderLock(c *counter, in, out chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want `blocking select while holding c.mu`
	case v := <-in:
		c.n = v
	case out <- c.n:
	}
}

func waitUnderLock(c *counter, wg *sync.WaitGroup) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wg.Wait() // want `sync.WaitGroup.Wait while holding c.mu`
}

func clientUnderLock(c *counter, hc *http.Client, req *http.Request) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := hc.Do(req) // want `http.Client.Do while holding c.mu`
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

type table struct {
	mu sync.RWMutex
	m  map[string]int
}

func (t *table) publish(ch chan int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ch <- t.m["x"] // want `channel send while holding t.mu`
}

func localMutex(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	ch <- 1 // want `channel send while holding mu`
	mu.Unlock()
}

func labeledLoopSend(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
loop:
	for i := 0; i < 3; i++ {
		ch <- i // want `channel send while holding c.mu`
		if i == c.n {
			break loop
		}
	}
}

func recvInIfInit(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := <-ch; v > 0 { // want `channel receive while holding c.mu`
		c.n = v
	}
}

// A function literal passed as an argument runs under the caller's
// locks: once.Do calls it before returning.
func callbackUnderLock(c *counter, once *sync.Once) {
	c.mu.Lock()
	defer c.mu.Unlock()
	once.Do(func() {
		time.Sleep(time.Millisecond) // want `time.Sleep while holding c.mu`
	})
}

// Deferred calls run last in, first out: the Sleep runs before the
// deferred Unlock, with c.mu still held.
func deferredSleepUnderLock(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer time.Sleep(time.Millisecond) // want `time.Sleep while holding c.mu`
}

func rangeUnderLock(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := range ch { // want `channel receive while holding c.mu`
		c.n += v
	}
}

func emptySelectUnderLock(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {} // want `blocking select while holding c.mu`
}

var pkgMu sync.Mutex

// A literal in a package-level initializer is checked like any other.
var pkgLit = func() {
	pkgMu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while holding pkgMu`
	pkgMu.Unlock()
}

func typeSwitchRecv(c *counter, ch chan any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch (<-ch).(type) { // want `channel receive while holding c.mu`
	}
}

func forPostRecv(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for v := 0; v < 3; v = <-ch { // want `channel receive while holding c.mu`
	}
}

func incDecRecv(c *counter, hits map[int]int, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hits[<-ch]++ // want `channel receive while holding c.mu`
}

func pick(int) func() { return func() {} }

func computedCalleeRecv(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pick(<-ch)() // want `channel receive while holding c.mu`
}

func indexedCalleeRecv(c *counter, fns []func(), ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fns[<-ch]() // want `channel receive while holding c.mu`
}

// Clean cases below: no findings expected.

func sleepAfterUnlock(c *counter) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	time.Sleep(time.Millisecond)
}

func nonBlockingSend(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case ch <- c.n:
	default:
	}
}

func goroutineEscapes(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// The goroutine runs on its own stack after this function's locks
	// are no longer the scan's concern.
	go func() {
		time.Sleep(time.Millisecond)
	}()
}

func literalNotCalled(c *counter) func() {
	c.mu.Lock()
	defer c.mu.Unlock()
	return func() {
		time.Sleep(time.Millisecond)
	}
}

func releasedInBranch(c *counter, fast bool) {
	c.mu.Lock()
	if fast {
		c.mu.Unlock()
		time.Sleep(time.Millisecond)
		return
	}
	c.n++
	c.mu.Unlock()
}
