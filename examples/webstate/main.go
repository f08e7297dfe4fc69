// Webstate: the state-management unit of the web-application chapter, one
// scope at a time — a server-side session that slides and then expires, a
// signed client-side view state that refuses tampering, application state
// shared by every user, and the data cache with TTL and dependencies.
// Time runs on a virtual clock, so the expiries are exact.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"soc/internal/session"
	"soc/internal/vtime"
)

func main() {
	clock := vtime.NewVirtual(time.Date(2014, 5, 19, 9, 0, 0, 0, time.UTC))
	ctx := vtime.WithClock(context.Background(), clock)

	// Session scope: one user's values, kept for 20 minutes of inactivity.
	sessions := session.NewManager(session.WithTTL(20 * time.Minute))
	alice := sessions.Create(ctx)
	alice.Set("user", "alice")
	alice.Set("cart", 3)
	bob := sessions.Create(ctx)
	bob.Set("user", "bob")
	clock.Advance(15 * time.Minute)
	_, err := sessions.Get(ctx, alice.ID) // renews alice only
	must(err)
	clock.Advance(10 * time.Minute)
	live := sessions.Len()
	fmt.Printf("session: alice holds %v; of %d sessions, %d (bob's) swept after 25 idle minutes\n",
		alice.Keys(), live, sessions.Sweep(ctx))
	sessions.Destroy(alice.ID) // log out
	_, err = sessions.Get(ctx, alice.ID)
	fmt.Printf("session: gone after logout: %v\n", errors.Is(err, session.ErrNoSession))

	// View state: page state round-trips through the client, signed.
	vs, err := session.NewViewState([]byte("page-secret-key-of-32-bytes!!!!"))
	must(err)
	token, err := vs.Encode(map[string]string{"step": "2", "amount": "400000"})
	must(err)
	state, err := vs.Decode(token)
	must(err)
	_, err = vs.Decode(token[:len(token)-2] + "AA")
	fmt.Printf("view state: decoded %v; a tampered token: %v\n", state, errors.Is(err, session.ErrTampered))

	// Application scope: one hit counter shared by every session.
	app := session.NewAppState()
	app.Set("title", "ASU Repository")
	for i := 0; i < 3; i++ {
		app.Update("hits", func(cur any) any {
			n, _ := cur.(int)
			return n + 1
		})
	}
	hits, _ := app.Get("hits")
	fmt.Printf("application state: %d hits\n", hits)

	// Data cache: computed once, expired by TTL, dropped by key.
	cache, err := session.NewCache(64, session.WithCacheTTL(time.Minute))
	must(err)
	loads := 0
	rate := func() (any, error) { loads++; return 4.25, nil }
	for i := 0; i < 3; i++ {
		if _, err := cache.GetOrCompute(ctx, "rate", rate); err != nil {
			log.Fatal(err)
		}
	}
	clock.Advance(2 * time.Minute)
	if _, err := cache.GetOrCompute(ctx, "rate", rate); err != nil {
		log.Fatal(err)
	}
	cache.Invalidate("rate")
	fmt.Printf("cache: 4 reads, %d loads (one after the TTL); %d entries after invalidation\n", loads, cache.Len())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
