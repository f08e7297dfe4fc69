// Composition: orchestrates repository services with the workflow engine —
// the CSE446 "software integration" exercise. The workflow generates a
// strong password with one service, encrypts it with another, caches the
// ciphertext with a third, and verifies the round trip, with a fault
// handler demonstrating BPEL-style scopes; a second, failing workflow
// shows a scope compensating the step it already ran.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/services"
	"soc/internal/workflow"
)

func main() {
	dataDir, err := os.MkdirTemp("", "composition-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	catalog, err := services.NewCatalog(dataDir)
	if err != nil {
		log.Fatal(err)
	}
	h := host.New()
	if err := catalog.MountAll(h); err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(h)
	defer server.Close()
	client := host.NewClient(server.URL)

	// The workflow engine invokes services over their public REST
	// binding — real distributed composition, not function calls.
	invoker := workflow.InvokerFunc(func(ctx context.Context, svc, op string, args map[string]any) (map[string]any, error) {
		out, err := client.Call(ctx, svc, op, core.Values(args))
		return map[string]any(out), err
	})

	wf, err := workflow.New("secure-secret", &workflow.Scope{
		Label: "pipeline",
		Body: &workflow.Sequence{Label: "steps", Steps: []workflow.Activity{
			&workflow.Invoke{
				Label: "generate", Service: "RandomString", Operation: "StrongPassword",
				Invoker: invoker,
				Inputs:  map[string]string{"length": "pwLen"},
				Outputs: map[string]string{"password": "secret"},
			},
			&workflow.Invoke{
				Label: "encrypt", Service: "Encryption", Operation: "Encrypt",
				Invoker: invoker,
				Inputs:  map[string]string{"passphrase": "key", "plaintext": "secret"},
				Outputs: map[string]string{"ciphertext": "sealed"},
			},
			&workflow.Invoke{
				Label: "cache", Service: "Caching", Operation: "Put",
				Invoker: invoker,
				Inputs:  map[string]string{"key": "cacheKey", "value": "sealed"},
			},
			&workflow.Invoke{
				Label: "decrypt", Service: "Encryption", Operation: "Decrypt",
				Invoker: invoker,
				Inputs:  map[string]string{"passphrase": "key", "ciphertext": "sealed"},
				Outputs: map[string]string{"plaintext": "roundTrip"},
			},
			&workflow.Task{Label: "verify", Fn: func(_ context.Context, v *workflow.Vars) error {
				if v.GetString("roundTrip") != v.GetString("secret") {
					return fmt.Errorf("round trip mismatch")
				}
				return nil
			}},
		}},
		OnFault: &workflow.Task{Label: "report", Fn: func(_ context.Context, v *workflow.Vars) error {
			fmt.Println("fault handled:", v.GetString("fault.pipeline"))
			return nil
		}},
	})
	if err != nil {
		log.Fatal(err)
	}

	out, trace, err := wf.Run(context.Background(), map[string]any{
		"pwLen": 16, "key": "orchestration-demo-key", "cacheKey": "secret:1",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("workflow trace:")
	for _, name := range trace.Names() {
		fmt.Println("  ", name)
	}
	fmt.Printf("\nsecret round-tripped through 4 service calls: %q\n", out["roundTrip"])

	// Prove the cache service saw it too.
	cached, err := client.Call(context.Background(), "Caching", "Get", core.Values{"key": "secret:1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cached ciphertext present: %v\n", cached.Bool("found"))

	// A saga: the booking step registers how to undo itself, a later step
	// faults, and the scope runs the undo — the cache write is gone.
	saga, err := workflow.New("saga", &workflow.Scope{Label: "order", Body: &workflow.Sequence{
		Label: "book", Steps: []workflow.Activity{
			&workflow.Invoke{
				Label: "hold", Service: "Caching", Operation: "Put",
				Invoker: invoker,
				Inputs:  map[string]string{"key": "holdKey", "value": "order", "dependency": "order"},
			},
			&workflow.Task{Label: "register-undo", Fn: func(ctx context.Context, v *workflow.Vars) error {
				return workflow.Compensate(ctx, "release", map[string]any{"dependency": v.GetString("order")})
			}},
			&workflow.Task{Label: "pay", Fn: func(context.Context, *workflow.Vars) error {
				return fmt.Errorf("card declined")
			}},
		}}})
	if err != nil {
		log.Fatal(err)
	}
	saga.DefineCompensator("release", func(ctx context.Context, args map[string]any) error {
		_, err := client.Call(ctx, "Caching", "InvalidateDependency", core.Values(args))
		return err
	})
	_, _, err = saga.Run(context.Background(), map[string]any{"holdKey": "hold:1", "order": "order-9"})
	held, lookupErr := client.Call(context.Background(), "Caching", "Get", core.Values{"key": "hold:1"})
	if lookupErr != nil {
		log.Fatal(lookupErr)
	}
	fmt.Printf("\nsaga: %v; hold still cached after the undo: %v\n", err, held.Bool("found"))
}
