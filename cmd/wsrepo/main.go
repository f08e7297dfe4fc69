// Command wsrepo hosts the ASU repository of services and applications:
// the full sample-service catalog (SOAP + REST + WSDL for each), the
// Robot-as-a-Service environment, the service registry with keyword
// search, and the Figure 4 mortgage web application, on one port.
//
//	wsrepo -addr :8080 -data ./data
//
// Then, for example:
//
//	curl http://localhost:8080/services
//	curl 'http://localhost:8080/services/Encryption?wsdl'
//	curl -X POST http://localhost:8080/services/Calc... (see README)
//	curl 'http://localhost:8080/registry/search?q=captcha'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"soc/internal/host"
	"soc/internal/mortgageapp"
	"soc/internal/registry"
	"soc/internal/rest"
	"soc/internal/robot"
	"soc/internal/services"
	"soc/internal/wal"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so one that never finishes cannot hold a connection
// forever.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "", "data directory for account.xml (default: temp dir)")
	baseURL := flag.String("base-url", "", "advertised base URL (default: http://localhost<addr>)")
	cacheTTL := flag.Duration("cache-ttl", 30*time.Second, "idempotent-response cache TTL (0 disables the cache)")
	flag.Parse()

	if *dataDir == "" {
		tmp, err := os.MkdirTemp("", "wsrepo-*")
		if err != nil {
			log.Fatal(err)
		}
		*dataDir = tmp
		log.Printf("wsrepo: using temporary data dir %s", tmp)
	}
	if *baseURL == "" {
		*baseURL = "http://localhost" + *addr
	}

	mux, h, err := buildServer(*dataDir, *baseURL)
	if err != nil {
		log.Fatalf("wsrepo: %v", err)
	}
	if *cacheTTL > 0 {
		// Operations declared Idempotent answer repeats from the cache
		// (X-Cache: HIT); everything else bypasses it.
		h.UseResponseCache(512, *cacheTTL)
		log.Printf("wsrepo: idempotent-response cache on (512 entries, ttl %s)", *cacheTTL)
	}
	log.Printf("wsrepo: %d services mounted; listening on %s", len(h.Names()), *addr)
	srv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	if err := srv.ListenAndServe(); err != nil {
		log.Fatal(err)
	}
}

// buildServer assembles the repository server: the service host with the
// full catalog and the robot environment, the registry API (pre-seeded
// with the catalog), and the Figure 4 web application.
func buildServer(dataDir, baseURL string) (http.Handler, *host.Host, error) {
	h := host.New()
	h.BaseURL = baseURL

	catalogSvcs, err := services.NewCatalog(dataDir)
	if err != nil {
		return nil, nil, fmt.Errorf("building catalog: %w", err)
	}
	if err := catalogSvcs.MountAll(h); err != nil {
		return nil, nil, fmt.Errorf("mounting catalog: %w", err)
	}
	robotSvc, err := robot.NewService(robot.NewSessions())
	if err != nil {
		return nil, nil, fmt.Errorf("robot service: %w", err)
	}
	if err := h.Mount(robotSvc); err != nil {
		return nil, nil, fmt.Errorf("mounting robot: %w", err)
	}

	// The registry is durable: every publish, unpublish and lease renewal
	// is fsynced to a write-ahead log under <dataDir>/registry before it
	// is acknowledged, and restarts recover the directory (snapshot plus
	// log suffix, torn tails salvaged) before re-seeding the catalog.
	regFS, err := wal.NewOSFS(filepath.Join(dataDir, "registry"))
	if err != nil {
		return nil, nil, fmt.Errorf("registry dir: %w", err)
	}
	reg, err := registry.OpenDurable(regFS, registry.DurableOptions{})
	if err != nil {
		return nil, nil, fmt.Errorf("opening registry: %w", err)
	}
	if rec := reg.Recovery(); rec.LastIndex > 0 || rec.Salvaged {
		log.Printf("wsrepo: registry recovered: %s", rec)
	}
	if err := catalogSvcs.PublishAll(reg, baseURL, "wsrepo"); err != nil {
		return nil, nil, fmt.Errorf("publishing: %w", err)
	}
	// directory.xml is the human- and tool-readable UDDI-style export of
	// the recovered directory, rewritten atomically and durably (temp
	// file, fsync, rename, directory fsync) so a crash can never leave a
	// torn export behind.
	if err := reg.SaveFile(filepath.Join(dataDir, "directory.xml")); err != nil {
		return nil, nil, fmt.Errorf("exporting directory: %w", err)
	}

	app, err := mortgageapp.New(dataDir)
	if err != nil {
		return nil, nil, fmt.Errorf("mortgage app: %w", err)
	}

	api := registry.NewAPI(reg)
	// Registry lookups join the caller's trace in the same ring the host
	// dispatches record into, so /tracez shows discovery and invocation
	// as one tree.
	api.Use(rest.Tracing(h.Tracer(), nil))

	mux := http.NewServeMux()
	mux.Handle("/services", h)
	mux.Handle("/services/", h)
	mux.Handle("/healthz", h)
	mux.Handle("/tracez", h)
	mux.Handle("/metricz", h)
	mux.Handle("/registry/", api)
	mux.Handle("/app/", http.StripPrefix("/app", app))
	mux.HandleFunc("/robot/", robotPageHandler)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ASU-style service repository (Go reproduction)\n\n")
		fmt.Fprintf(w, "  GET  /healthz                       per-service health report\n")
		fmt.Fprintf(w, "  GET  /tracez                        recorded trace spans (?format=tree)\n")
		fmt.Fprintf(w, "  GET  /metricz                       per-operation instrument set\n")
		fmt.Fprintf(w, "  GET  /services                      hosted services\n")
		fmt.Fprintf(w, "  GET  /services/{name}?wsdl          WSDL 1.1\n")
		fmt.Fprintf(w, "  POST /services/{name}/soap          SOAP endpoint\n")
		fmt.Fprintf(w, "  POST /services/{name}/invoke/{op}   REST invocation\n")
		fmt.Fprintf(w, "  GET  /registry/services             registry listing\n")
		fmt.Fprintf(w, "  GET  /registry/search?q=...         keyword search\n")
		fmt.Fprintf(w, "  GET  /app/                          Figure 4 web application\n")
		fmt.Fprintf(w, "  GET  /robot/                        Figure 1 robotics environment\n")
	})
	return mux, h, nil
}
