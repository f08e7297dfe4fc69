package soc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soc/internal/core"
	"soc/internal/crawler"
	"soc/internal/host"
	"soc/internal/registry"
	"soc/internal/robot"
	"soc/internal/services"
	"soc/internal/workflow"
)

// TestIntegrationFullRepository stands up the entire ASU-repository stack
// — catalog + host + registry + registry API — and exercises the complete
// SOA triangle over real HTTP: publish, discover, describe, consume.
func TestIntegrationFullRepository(t *testing.T) {
	ctx := context.Background()
	catalog, err := services.NewCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := host.New()
	if err := catalog.MountAll(h); err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	mux := http.NewServeMux()
	mux.Handle("/services", h)
	mux.Handle("/services/", h)
	mux.Handle("/registry/", registry.NewAPI(reg))
	server := httptest.NewServer(mux)
	defer server.Close()
	h.BaseURL = server.URL
	if err := catalog.PublishAll(reg, server.URL, "integration"); err != nil {
		t.Fatal(err)
	}

	// 1. A client discovers the encryption service purely by keyword,
	// through the remote registry API.
	regClient := registry.NewClient(server.URL)
	matches, err := regClient.Search(ctx, "encryption", 3)
	if err != nil || len(matches) == 0 {
		t.Fatalf("search: %v %v", matches, err)
	}
	if matches[0].Entry.Name != "Encryption" {
		t.Fatalf("top match = %s", matches[0].Entry.Name)
	}

	// 2. It reads the WSDL contract for the discovered service.
	svcClient := host.NewClient(server.URL)
	desc, err := svcClient.Describe(ctx, matches[0].Entry.Name)
	if err != nil {
		t.Fatal(err)
	}
	opNames := map[string]bool{}
	for _, op := range desc.Ops {
		opNames[op.Name] = true
	}
	if !opNames["Encrypt"] || !opNames["Decrypt"] {
		t.Fatalf("wsdl ops = %v", desc.Ops)
	}

	// 3. REST and SOAP bindings return consistent results.
	restOut, err := svcClient.Call(ctx, "Encryption", "Encrypt",
		core.Values{"passphrase": "k", "plaintext": "integration"})
	if err != nil {
		t.Fatal(err)
	}
	soapBack, err := svcClient.CallSOAP(ctx, "Encryption", "Decrypt", desc.Namespace,
		core.Values{"passphrase": "k", "ciphertext": restOut.Str("ciphertext")})
	if err != nil {
		t.Fatal(err)
	}
	if soapBack["plaintext"] != "integration" {
		t.Fatalf("cross-binding round trip = %q", soapBack["plaintext"])
	}

	// 4. All twelve catalog services are listed by the host.
	req, err := http.NewRequest(http.MethodGet, server.URL+"/services", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct{ Name string }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || len(list) != 12 {
		t.Fatalf("host list = %d services, %v", len(list), err)
	}
}

// TestIntegrationWorkflowOverHTTP composes three hosted services through
// the workflow engine calling their public REST endpoints.
func TestIntegrationWorkflowOverHTTP(t *testing.T) {
	catalog, err := services.NewCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := host.New()
	if err := catalog.MountAll(h); err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(h)
	defer server.Close()
	client := host.NewClient(server.URL)

	invoker := workflow.InvokerFunc(func(ctx context.Context, svc, op string, args map[string]any) (map[string]any, error) {
		out, err := client.Call(ctx, svc, op, core.Values(args))
		return map[string]any(out), err
	})
	wf, err := workflow.New("seal", &workflow.Sequence{Label: "steps", Steps: []workflow.Activity{
		&workflow.Invoke{Label: "gen", Service: "RandomString", Operation: "Generate",
			Invoker: invoker,
			Inputs:  map[string]string{"length": "n"},
			Outputs: map[string]string{"value": "secret"}},
		&workflow.Invoke{Label: "enc", Service: "Encryption", Operation: "Encrypt",
			Invoker: invoker,
			Inputs:  map[string]string{"passphrase": "key", "plaintext": "secret"},
			Outputs: map[string]string{"ciphertext": "sealed"}},
		&workflow.Invoke{Label: "dec", Service: "Encryption", Operation: "Decrypt",
			Invoker: invoker,
			Inputs:  map[string]string{"passphrase": "key", "ciphertext": "sealed"},
			Outputs: map[string]string{"plaintext": "back"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	out, trace, err := wf.Run(context.Background(), map[string]any{"n": 24, "key": "wfkey"})
	if err != nil {
		t.Fatal(err)
	}
	secret, _ := out["secret"].(string)
	back, _ := out["back"].(string)
	if secret == "" || secret != back {
		t.Fatalf("round trip: %q vs %q", secret, back)
	}
	if len(trace.Names()) != 4 { // 3 invokes + sequence
		t.Errorf("trace = %v", trace.Names())
	}
}

// TestIntegrationRobotOverHTTP drives the maze robot entirely through the
// host's REST binding — the Figure 1 web environment with the network in
// the loop.
func TestIntegrationRobotOverHTTP(t *testing.T) {
	svc, err := robot.NewService(robot.NewSessions())
	if err != nil {
		t.Fatal(err)
	}
	h := host.New()
	if err := h.Mount(svc); err != nil {
		t.Fatal(err)
	}
	server := httptest.NewServer(h)
	defer server.Close()
	client := host.NewClient(server.URL)
	ctx := context.Background()

	out, err := client.Call(ctx, "Robot", "CreateMaze", core.Values{
		"width": 9, "height": 9, "algorithm": "prim", "seed": 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	session := out.Float("session") // JSON numbers arrive as float64
	run, err := client.Call(ctx, "Robot", "RunProgram", core.Values{
		"session": session,
		"program": "WHILE NOT_GOAL\nIF RIGHT_OPEN\nRIGHT\nFORWARD\nELSE\nIF FRONT_OPEN\nFORWARD\nELSE\nLEFT\nEND\nEND\nEND",
	})
	if err != nil {
		t.Fatal(err)
	}
	if run["atGoal"] != true {
		t.Fatalf("run = %v", run)
	}
	state, err := client.Call(ctx, "Robot", "State", core.Values{"session": session})
	if err != nil || state["atGoal"] != true {
		t.Fatalf("state = %v %v", state, err)
	}
}

// TestIntegrationCrawlerFindsHostedCatalog points the crawler at a
// directory page listing the live repository and checks it discovers and
// indexes the services.
func TestIntegrationCrawlerFindsHostedCatalog(t *testing.T) {
	catalog, err := services.NewCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := host.New()
	if err := catalog.MountAll(h); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	var server *httptest.Server
	mux.HandleFunc("/directory.html", func(w http.ResponseWriter, r *http.Request) {
		var links strings.Builder
		for _, svc := range catalog.Services {
			fmt.Fprintf(&links, `<a href="%s/services/%s">%s</a> `, server.URL, svc.Name, svc.Name)
		}
		fmt.Fprintf(w, "<html><body>%s</body></html>", links.String())
	})
	mux.Handle("/services/", h)
	server = httptest.NewServer(mux)
	defer server.Close()

	found, err := crawler.Crawl(context.Background(), []string{server.URL + "/directory.html"},
		crawler.Config{SameHostOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != len(catalog.Services) {
		t.Fatalf("discovered %d of %d services", len(found), len(catalog.Services))
	}
	reg := registry.New()
	if _, err := crawler.Feed(reg, "it-crawler", found); err != nil {
		t.Fatal(err)
	}
	matches, err := reg.Search("mortgage credit", 1)
	if err != nil || len(matches) == 0 || matches[0].Entry.Name != "Mortgage" {
		t.Fatalf("post-crawl search: %v %v", matches, err)
	}
}
