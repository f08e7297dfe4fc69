package eventbus

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestPublishSubscribe(t *testing.T) {
	b := New(4)
	sub, err := b.Subscribe("orders/created")
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.Publish("orders/created", 42)
	if err != nil || n != 1 {
		t.Fatalf("Publish: %d %v", n, err)
	}
	e := <-sub.C
	if e.Topic != "orders/created" || e.Payload != 42 {
		t.Errorf("event = %+v", e)
	}
}

func TestWildcardMatching(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"a/b", "a/b", true},
		{"a/b", "a/c", false},
		{"a/*", "a/b", true},
		{"a/*", "a/b/c", false},
		{"a/#", "a/b/c", true},
		{"#", "anything/at/all", true},
		{"*/created", "orders/created", true},
		{"*/created", "orders/deleted", false},
		{"a/b/c", "a/b", false},
	}
	for _, c := range cases {
		if got := Matches(c.pattern, c.topic); got != c.want {
			t.Errorf("Matches(%q,%q) = %v", c.pattern, c.topic, got)
		}
	}
}

func TestWildcardSubscriptions(t *testing.T) {
	b := New(4)
	star, _ := b.Subscribe("orders/*")
	hash, _ := b.Subscribe("orders/#")
	exact, _ := b.Subscribe("orders/created")
	n, _ := b.Publish("orders/created", "x")
	if n != 3 {
		t.Errorf("delivered to %d, want 3", n)
	}
	n, _ = b.Publish("orders/a/b", "y")
	if n != 1 {
		t.Errorf("deep topic delivered to %d, want 1 (# only)", n)
	}
	<-star.C
	<-hash.C
	<-exact.C
}

func TestPatternValidation(t *testing.T) {
	b := New(1)
	for _, bad := range []string{"", "a//b", "a/#/b"} {
		if _, err := b.Subscribe(bad); err == nil {
			t.Errorf("Subscribe(%q) accepted", bad)
		}
	}
	if _, err := b.Publish("a/*", 1); err == nil {
		t.Error("wildcard topic accepted")
	}
	if _, err := b.Publish("", 1); err == nil {
		t.Error("empty topic accepted")
	}
}

func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	b := New(1)
	sub, _ := b.Subscribe("t")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if _, err := b.Publish("t", i); err != nil {
				t.Errorf("Publish: %v", err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher blocked on slow subscriber")
	}
	if sub.Dropped() != 4 {
		t.Errorf("dropped = %d, want 4", sub.Dropped())
	}
	published, deliveries, drops := b.Stats()
	if published != 5 || deliveries != 1 || drops != 4 {
		t.Errorf("stats = %d/%d/%d", published, deliveries, drops)
	}
}

func TestCancelAndClose(t *testing.T) {
	b := New(1)
	sub, _ := b.Subscribe("t")
	sub.Cancel()
	if _, ok := <-sub.C; ok {
		t.Error("cancelled channel still open")
	}
	sub.Cancel() // idempotent
	n, _ := b.Publish("t", 1)
	if n != 0 {
		t.Errorf("delivered to cancelled sub: %d", n)
	}
	sub2, _ := b.Subscribe("t")
	b.Close()
	if _, ok := <-sub2.C; ok {
		t.Error("closed bus channel still open")
	}
	if _, err := b.Publish("t", 1); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close: %v", err)
	}
	if _, err := b.Subscribe("t"); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close: %v", err)
	}
	b.Close() // idempotent
}

func TestWaitAny(t *testing.T) {
	b := New(4)
	a, _ := b.Subscribe("a")
	c, _ := b.Subscribe("c")
	go func() {
		time.Sleep(5 * time.Millisecond)
		_, _ = b.Publish("c", "payload")
	}()
	e, idx, err := WaitAny(context.Background(), a, c)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || e.Payload != "payload" {
		t.Errorf("idx=%d e=%+v", idx, e)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := WaitAny(ctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout: %v", err)
	}
	if _, _, err := WaitAny(context.Background()); err == nil {
		t.Error("empty WaitAny accepted")
	}
}

func TestWaitAll(t *testing.T) {
	b := New(4)
	a, _ := b.Subscribe("a")
	c, _ := b.Subscribe("c")
	go func() {
		_, _ = b.Publish("c", 2)
		_, _ = b.Publish("a", 1)
	}()
	events, err := WaitAll(context.Background(), a, c)
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Payload != 1 || events[1].Payload != 2 {
		t.Errorf("events = %+v", events)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := WaitAll(ctx, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout: %v", err)
	}
	if _, err := WaitAll(context.Background()); err == nil {
		t.Error("empty WaitAll accepted")
	}
}

// TestWaitAnyLeavesOtherEvents: WaitAny takes its event from the one
// subscription that fired; an event already waiting on another stays
// there for the next wait.
func TestWaitAnyLeavesOtherEvents(t *testing.T) {
	b := New(4)
	a, _ := b.Subscribe("a")
	c, _ := b.Subscribe("c")
	for round := 0; round < 20; round++ {
		_, _ = b.Publish("a", round)
		_, _ = b.Publish("c", round)
		seen := map[string]bool{}
		for n := 0; n < 2; n++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			e, _, err := WaitAny(ctx, a, c)
			cancel()
			if err != nil {
				t.Fatalf("round %d, wait %d: %v (an event was swallowed)", round, n, err)
			}
			seen[e.Topic] = true
		}
		if !seen["a"] || !seen["c"] {
			t.Fatalf("round %d: got %v, want one event from each subscription", round, seen)
		}
	}
}
