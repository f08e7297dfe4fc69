// Command socflow runs the durable workflow orchestrator as a small REST
// driver: workflow definitions execute against in-process services, every
// step is journaled to an on-disk WAL before its effect applies, and a
// restarted process resumes each instance at its exact step.
//
//	socflow -addr :8447 -data /var/lib/socflow
//
//	curl -X POST localhost:8447/instances/score-check \
//	     -d '{"id":"loan-1","vars":{"ssn":"123-45-6789","password":"s3cret!Pw"}}'
//	curl localhost:8447/instances            # all instances + status
//	curl localhost:8447/instances/loan-1     # one instance's journal audit
//	curl -X POST localhost:8447/instances/loan-1/resume
//
// Kill the process mid-instance and start it again: GET /instances shows
// the pending set recovered from the journal, and POST .../resume drives
// each one to its terminal state without re-issuing completed steps.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soc/internal/core"
	"soc/internal/rest"
	"soc/internal/services"
	"soc/internal/wal"
	"soc/internal/workflow"
)

func main() {
	addr := flag.String("addr", ":8447", "listen address")
	data := flag.String("data", "socflow-data", "journal directory (created if missing)")
	flag.Parse()

	srv, orch, err := newServer(*data)
	if err != nil {
		log.Fatalf("socflow: %v", err)
	}
	pending := orch.Pending()
	log.Printf("socflow: journal %s recovered: %s, %d instance(s) pending resume",
		*data, orch.Recovery(), len(pending))
	if len(pending) > 0 {
		log.Printf("socflow: pending: %s", strings.Join(pending, ", "))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		<-ctx.Done()
		shctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		//soclint:ignore errdiscard shutdown path; the orchestrator close below reports the durable error
		_ = hs.Shutdown(shctx)
	}()
	log.Printf("socflow: listening on %s", *addr)
	if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatalf("socflow: %v", err)
	}
	if err := orch.Close(); err != nil {
		log.Fatalf("socflow: close journal: %v", err)
	}
}

// server is the REST surface over one orchestrator.
type server struct {
	orch *workflow.Orchestrator
	mux  *http.ServeMux
}

// newServer opens (or recovers) the journal under dir, wires the
// in-process invoker, and registers the built-in definitions.
func newServer(dir string) (*server, *workflow.Orchestrator, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	fs, err := wal.NewOSFS(dir)
	if err != nil {
		return nil, nil, err
	}
	inv, err := localInvoker()
	if err != nil {
		return nil, nil, err
	}
	orch, err := workflow.OpenOrchestrator(fs, workflow.Options{})
	if err != nil {
		return nil, nil, err
	}
	def, err := scoreCheckWorkflow(inv)
	if err != nil {
		return nil, nil, err
	}
	orch.Define(def)
	orch.DefineCompensator("log-reject", func(_ context.Context, args map[string]any) error {
		log.Printf("socflow: compensating: rejecting instance with vars %v", args)
		return nil
	})
	s := &server{orch: orch, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/instances", s.listInstances)
	s.mux.HandleFunc("/instances/", s.instance)
	return s, orch, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// localInvoker routes workflow invokes to in-process service instances —
// the same Invoker seam the simulator fills with a wire client.
func localInvoker() (workflow.Invoker, error) {
	reg := map[string]*core.Service{}
	for _, mk := range []func() (*core.Service, error){services.NewCreditScore, services.NewRandomString} {
		svc, err := mk()
		if err != nil {
			return nil, err
		}
		reg[svc.Name] = svc
	}
	return workflow.InvokerFunc(func(ctx context.Context, service, op string, args map[string]any) (map[string]any, error) {
		svc, ok := reg[service]
		if !ok {
			return nil, fmt.Errorf("no such service %q", service)
		}
		out, err := svc.Invoke(ctx, op, core.Values(args))
		return out, err
	}), nil
}

// scoreCheckWorkflow is the built-in demo definition: score an applicant,
// check their chosen password, and approve only when both pass. The
// decision steps journal through the same machinery as any composite.
func scoreCheckWorkflow(inv workflow.Invoker) (*workflow.Workflow, error) {
	root := &workflow.Sequence{Label: "score-check", Steps: []workflow.Activity{
		&workflow.Invoke{Label: "score", Service: "CreditScore", Operation: "Score", Invoker: inv,
			Idempotent:   true,
			Inputs:       map[string]string{"ssn": "ssn"},
			Outputs:      map[string]string{"score": "score"},
			Compensation: &workflow.Undo{Name: "log-reject", ArgsFrom: map[string]string{"ssn": "ssn"}}},
		&workflow.Parallel{Label: "checks", Branches: []workflow.Activity{
			&workflow.Invoke{Label: "password", Service: "RandomString", Operation: "CheckStrength", Invoker: inv,
				Idempotent: true,
				Inputs:     map[string]string{"password": "password"},
				Outputs:    map[string]string{"strong": "strong", "reason": "reason"}},
			&workflow.Assign{Label: "threshold", Var: "creditOK", Expr: func(v *workflow.Vars) any {
				return v.GetInt("score") >= services.ApprovalThreshold
			}},
		}},
		&workflow.If{Label: "decide",
			Cond: func(v *workflow.Vars) bool {
				ok, _ := v.Get("strong")
				credit, _ := v.Get("creditOK")
				return ok == true && credit == true
			},
			Then: &workflow.Assign{Label: "approve", Var: "approved", Expr: func(*workflow.Vars) any { return true }},
			Else: &workflow.Assign{Label: "reject", Var: "approved", Expr: func(*workflow.Vars) any { return false }},
		},
	}}
	return workflow.New("score-check", root)
}

func (s *server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "pending": len(s.orch.Pending())})
}

// instanceView is the list-endpoint row.
type instanceView struct {
	ID     string `json:"id"`
	Def    string `json:"def"`
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
}

func (s *server) listInstances(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	audits := s.orch.Audits()
	out := make([]instanceView, 0, len(audits))
	for _, id := range s.orch.Instances() {
		a := audits[id]
		out = append(out, instanceView{ID: a.ID, Def: a.Def, Status: a.Status, Err: a.Err})
	}
	writeJSON(w, http.StatusOK, out)
}

// instance dispatches /instances/{id}, /instances/{def} (POST: start) and
// /instances/{id}/resume.
func (s *server) instance(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/instances/")
	name, action, _ := strings.Cut(rest, "/")
	if name == "" {
		http.Error(w, "missing instance or definition name", http.StatusBadRequest)
		return
	}
	switch {
	case action == "resume" && r.Method == http.MethodPost:
		s.resume(w, r, name)
	case action == "" && r.Method == http.MethodPost:
		s.start(w, r, name)
	case action == "" && r.Method == http.MethodGet:
		s.audit(w, name)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

type startRequest struct {
	ID   string         `json:"id"`
	Vars map[string]any `json:"vars"`
}

func (s *server) start(w http.ResponseWriter, r *http.Request, def string) {
	var req startRequest
	if err := rest.ReadJSON(r, &req, 0); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.ID == "" {
		http.Error(w, "missing instance id", http.StatusBadRequest)
		return
	}
	res, err := s.orch.Start(r.Context(), req.ID, def, req.Vars)
	if err != nil {
		// The instance may still exist in a pending state; report the
		// result alongside the error so the caller can resume it.
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "result": res})
		return
	}
	writeJSON(w, http.StatusCreated, res)
}

func (s *server) resume(w http.ResponseWriter, r *http.Request, id string) {
	res, err := s.orch.Resume(r.Context(), id)
	if err != nil {
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "result": res})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) audit(w http.ResponseWriter, id string) {
	a, ok := s.orch.Audit(id)
	if !ok {
		http.Error(w, "no such instance", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"audit": a, "problems": a.Problems()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("socflow: write response: %v", err)
	}
}
