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
	"errors"
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
	orch   *workflow.Orchestrator
	router *rest.Router
}

// newServer opens (or recovers) the journal under dir, wires the
// in-process invoker, and registers the built-in definitions.
func newServer(dir string) (*server, *workflow.Orchestrator, error) {
	s := &server{router: rest.NewRouter()}
	if err := errors.Join(
		s.router.GET("/healthz", s.healthz),
		s.router.GET("/instances", s.listInstances),
		s.router.GET("/instances/{id}", s.audit),
		s.router.POST("/instances/{def}", s.start),
		s.router.POST("/instances/{id}/resume", s.resume),
	); err != nil {
		return nil, nil, err
	}
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
	s.orch = orch
	return s, orch, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.router.ServeHTTP(w, r) }

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

func (s *server) healthz(w http.ResponseWriter, _ *http.Request, _ rest.Params) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "pending": len(s.orch.Pending())})
}

// instanceView is the list-endpoint row.
type instanceView struct {
	ID     string `json:"id"`
	Def    string `json:"def"`
	Status string `json:"status"`
	Err    string `json:"err,omitempty"`
}

func (s *server) listInstances(w http.ResponseWriter, _ *http.Request, _ rest.Params) {
	audits := s.orch.Audits()
	out := make([]instanceView, 0, len(audits))
	for _, id := range s.orch.Instances() {
		a := audits[id]
		out = append(out, instanceView{ID: a.ID, Def: a.Def, Status: a.Status, Err: a.Err})
	}
	writeJSON(w, http.StatusOK, out)
}

type startRequest struct {
	ID   string         `json:"id"`
	Vars map[string]any `json:"vars"`
}

func (s *server) start(w http.ResponseWriter, r *http.Request, p rest.Params) {
	var req startRequest
	if err := rest.ReadJSON(r, &req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.ID == "" {
		http.Error(w, "missing instance id", http.StatusBadRequest)
		return
	}
	res, err := s.orch.Start(r.Context(), req.ID, p["def"], req.Vars)
	if err != nil {
		// The instance may still exist in a pending state; report the
		// result alongside the error so the caller can resume it.
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "result": res})
		return
	}
	writeJSON(w, http.StatusCreated, res)
}

func (s *server) resume(w http.ResponseWriter, r *http.Request, p rest.Params) {
	res, err := s.orch.Resume(r.Context(), p["id"])
	if err != nil {
		writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error(), "result": res})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) audit(w http.ResponseWriter, _ *http.Request, p rest.Params) {
	a, ok := s.orch.Audit(p["id"])
	if !ok {
		http.Error(w, "no such instance", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"audit": a, "problems": a.Problems()})
}

// writeJSON answers in JSON alone, not through rest.WriteResponse: the
// documents here are maps, which its XML side (encoding/xml) cannot write.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("socflow: write response: %v", err)
	}
}
