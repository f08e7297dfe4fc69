// Eventbus: the event-driven integration of the enterprise chapter — an
// order flow over a topic bus with wildcard subscriptions, the WaitAny and
// WaitAll coordination combinators, and a slow subscriber that drops
// events instead of stalling the publishers.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"soc/internal/eventbus"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	bus := eventbus.New(2)
	defer bus.Close()
	subscribe := func(pattern string) *eventbus.Subscription {
		s, err := bus.Subscribe(pattern)
		must(err)
		return s
	}
	publish := func(topic string, payload any) {
		_, err := bus.Publish(topic, payload)
		must(err)
	}
	orders := subscribe("orders/*")
	payments := subscribe("payments/settled")
	audit := subscribe("audit/#")

	publish("orders/created", "order-17")
	e, which, err := eventbus.WaitAny(ctx, payments, orders)
	must(err)
	fmt.Printf("WaitAny: subscription %d (%s) fired first with %s %v\n", which, []string{"payments", "orders"}[which], e.Topic, e.Payload)

	publish("payments/settled", "order-17")
	publish("audit/orders/shipped", "order-17")
	both, err := eventbus.WaitAll(ctx, payments, audit)
	must(err)
	fmt.Printf("WaitAll: %s and %s both arrived\n", both[0].Topic, both[1].Topic)

	// Nobody reads orders now: its two-event buffer fills and the rest
	// are dropped, while publishing never blocks.
	for i := 0; i < 5; i++ {
		publish("orders/created", i)
	}
	fmt.Printf("slow subscriber dropped %d of 5; 'audit/#' matches audit/a/b: %v\n",
		orders.Dropped(), eventbus.Matches("audit/#", "audit/a/b"))
	orders.Cancel()
	published, deliveries, drops := bus.Stats()
	fmt.Printf("bus: %d published, %d delivered, %d dropped\n", published, deliveries, drops)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
