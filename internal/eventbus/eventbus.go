// Package eventbus implements the event-driven architecture unit of
// CSE446: a topic-based publish/subscribe bus with hierarchical topics and
// wildcard subscriptions, buffered asynchronous delivery, and the
// WaitAll/WaitAny event-coordination combinators taught with the CCR-style
// programming model.
package eventbus

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// ErrClosed reports use of a closed bus.
var ErrClosed = errors.New("eventbus: closed")

// Event is one published message.
type Event struct {
	Topic   string
	Payload any
}

// Subscription receives matching events on C until cancelled.
type Subscription struct {
	// C delivers matching events.
	C <-chan Event
	// Pattern is the subscribed topic pattern.
	Pattern string

	bus     *Bus
	ch      chan Event
	id      int64
	dropped int64
}

// Bus is a topic pub/sub bus. Topics are slash-separated paths
// ("orders/created"); subscription patterns may use "*" for one segment
// and "#" for any suffix ("orders/*", "audit/#").
type Bus struct {
	mu     sync.Mutex
	nextID int64
	subs   map[int64]*Subscription
	closed bool
	// buffer is each subscriber's channel capacity.
	buffer int
	// published counts all events; deliveries counts per-sub handoffs.
	published  int64
	deliveries int64
	drops      int64
}

// New returns a bus whose subscribers buffer up to buffer events
// (minimum 1). Slow subscribers drop events rather than block publishers.
func New(buffer int) *Bus {
	if buffer < 1 {
		buffer = 16
	}
	return &Bus{subs: make(map[int64]*Subscription), buffer: buffer}
}

// Subscribe registers interest in a topic pattern.
func (b *Bus) Subscribe(pattern string) (*Subscription, error) {
	if err := validatePattern(pattern); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	b.nextID++
	ch := make(chan Event, b.buffer)
	sub := &Subscription{C: ch, ch: ch, Pattern: pattern, bus: b, id: b.nextID}
	b.subs[sub.id] = sub
	return sub, nil
}

func validatePattern(p string) error {
	if p == "" {
		return errors.New("eventbus: empty pattern")
	}
	segs := strings.Split(p, "/")
	for i, s := range segs {
		if s == "" {
			return fmt.Errorf("eventbus: empty segment in %q", p)
		}
		if s == "#" && i != len(segs)-1 {
			return fmt.Errorf("eventbus: # must be final in %q", p)
		}
	}
	return nil
}

// Cancel removes the subscription and closes its channel.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if _, ok := s.bus.subs[s.id]; ok {
		delete(s.bus.subs, s.id)
		close(s.ch)
	}
}

// Dropped reports events lost to this subscriber's full buffer.
func (s *Subscription) Dropped() int64 {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.dropped
}

// Matches reports whether a topic matches a pattern.
func Matches(pattern, topic string) bool {
	ps := strings.Split(pattern, "/")
	ts := strings.Split(topic, "/")
	for i, p := range ps {
		if p == "#" {
			return true
		}
		if i >= len(ts) {
			return false
		}
		if p != "*" && p != ts[i] {
			return false
		}
	}
	return len(ps) == len(ts)
}

// Publish delivers the event to every matching subscriber without
// blocking; full subscribers lose the event (counted in Dropped). It
// returns the number of successful deliveries.
func (b *Bus) Publish(topic string, payload any) (int, error) {
	if strings.Contains(topic, "*") || strings.Contains(topic, "#") {
		return 0, fmt.Errorf("eventbus: topic %q may not contain wildcards", topic)
	}
	if err := validatePattern(topic); err != nil {
		return 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, ErrClosed
	}
	b.published++
	delivered := 0
	for _, sub := range b.subs {
		if !Matches(sub.Pattern, topic) {
			continue
		}
		select {
		case sub.ch <- Event{Topic: topic, Payload: payload}:
			delivered++
			b.deliveries++
		default:
			sub.dropped++
			b.drops++
		}
	}
	return delivered, nil
}

// Close shuts the bus; all subscriber channels close.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, sub := range b.subs {
		close(sub.ch)
		delete(b.subs, id)
	}
}

// Stats reports publish/delivery/drop counters.
func (b *Bus) Stats() (published, deliveries, drops int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.deliveries, b.drops
}

// WaitAny blocks until any subscription delivers, returning the event and
// the index of the subscription that fired. It receives from that one
// subscription only, so the others keep their events; a cancelled
// subscription is skipped.
func WaitAny(ctx context.Context, subs ...*Subscription) (Event, int, error) {
	if len(subs) == 0 {
		return Event{}, -1, errors.New("eventbus: no subscriptions")
	}
	cases := make([]reflect.SelectCase, len(subs)+1)
	for i, s := range subs {
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(s.C)}
	}
	cases[len(subs)] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ctx.Done())}
	for {
		i, v, ok := reflect.Select(cases)
		if i == len(subs) {
			return Event{}, -1, ctx.Err()
		}
		if ok {
			return v.Interface().(Event), i, nil
		}
		cases[i].Chan = reflect.Value{} // closed: a zero Chan is never chosen
	}
}

// WaitAll blocks until every subscription has delivered at least one
// event, returning them in subscription order. It takes one event from
// each subscription in turn, so a failure leaves the rest untouched.
func WaitAll(ctx context.Context, subs ...*Subscription) ([]Event, error) {
	if len(subs) == 0 {
		return nil, errors.New("eventbus: no subscriptions")
	}
	out := make([]Event, len(subs))
	for i, s := range subs {
		select {
		case e, ok := <-s.C:
			if !ok {
				return nil, ErrClosed
			}
			out[i] = e
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}
