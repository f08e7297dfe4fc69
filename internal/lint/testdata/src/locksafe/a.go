// Package locksafe is a golden-file fixture for the locksafe analyzer:
// no copying lock-bearing values, no blocking while a mutex is held.
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

func (c counter) Value() int { // want `receiver passes a lock by value`
	return c.n
}

func byValueParam(c counter) int { // want `parameter passes a lock by value`
	return c.n
}

func assignCopy(c *counter) {
	snapshot := *c // want `assignment copies a lock-bearing value`
	_ = snapshot.n
}

func rangeCopy(cs []counter) int {
	total := 0
	for _, c := range cs { // want `range clause copies a lock-bearing value`
		total += c.n
	}
	return total
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

func pointerParam(c *counter) int {
	return c.n
}
