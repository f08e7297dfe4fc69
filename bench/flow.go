package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sync/atomic"
	"time"

	"soc/internal/core"
	"soc/internal/security"
	"soc/internal/services"
	"soc/internal/wal"
	"soc/internal/workflow"
)

// flowSystem is socflow's orchestrator on a real directory: Options{
// Deterministic: true}, default snapshot cadence, the score-check saga (two
// journaled invokes with a declarative compensation, Parallel, If) and one
// final invoke that faults for a planted tenth of the instances so LIFO
// compensation journals too. workflow and wal do the work; cloud, host and
// soap do none.
type flowSystem struct {
	dir  string
	seed int64
	rec  *recorder
	fs   *tracedFS // nil when untraced
	orch *workflow.Orchestrator

	started     [][]flowStart // per client, in start order
	compensated atomic.Int64
}

type flowStart struct {
	id     string
	status string
}

// flowSeedInstances is the journal history set-up lays down before the
// first measured Start, so the orchestrator is measured the way a restarted
// socflow runs — over a recovered journal, not an empty directory.
const flowSeedInstances = 200

func buildFlow(dir string, seed int64, clients int, scale float64, rec *recorder) (*flowSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &flowSystem{dir: dir, seed: seed, rec: rec, started: make([][]flowStart, clients+1)}
	if err := s.open(); err != nil {
		return nil, err
	}
	seedClient := clients // the extra slot keeps seeded ids apart from the clients'
	for i := 0; i < scaled(flowSeedInstances, scale); i++ {
		if err := s.do(context.Background(), seedClient, i); err != nil {
			return nil, fmt.Errorf("seeding journal: %w", err)
		}
	}
	if _, err := s.restart(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *flowSystem) open() error {
	osfs, err := wal.NewOSFS(s.dir)
	if err != nil {
		return err
	}
	var fs wal.FS = osfs
	if s.rec != nil {
		s.fs = newTracedFS(osfs, s.rec)
		fs = s.fs
	}
	orch, err := workflow.OpenOrchestrator(fs, workflow.Options{Deterministic: true})
	if err != nil {
		return err
	}
	inv, err := s.invoker()
	if err != nil {
		return err
	}
	def, err := scoreCheck(inv)
	if err != nil {
		return err
	}
	orch.Define(def)
	orch.DefineCompensator("log-reject", func(context.Context, map[string]any) error {
		s.compensated.Add(1)
		return nil
	})
	s.orch = orch
	return nil
}

// invoker routes invokes to in-process services as socflow's does, plus the
// Ledger.Commit step that fails on request.
func (s *flowSystem) invoker() (workflow.Invoker, error) {
	reg := map[string]*core.Service{}
	for _, mk := range []func() (*core.Service, error){services.NewCreditScore, services.NewRandomString} {
		svc, err := mk()
		if err != nil {
			return nil, err
		}
		reg[svc.Name] = svc
	}
	return workflow.InvokerFunc(func(ctx context.Context, service, op string, args map[string]any) (map[string]any, error) {
		id := s.rec.begin(layerInvoker)
		defer s.rec.end(id)
		if service == "Ledger" {
			if args["fail"] == true {
				return nil, errors.New("ledger refused the commit")
			}
			return map[string]any{}, nil
		}
		svc, ok := reg[service]
		if !ok {
			return nil, fmt.Errorf("no such service %q", service)
		}
		return svc.Invoke(ctx, op, core.Values(args))
	}), nil
}

// scoreCheck is cmd/socflow's built-in definition followed by the commit.
func scoreCheck(inv workflow.Invoker) (*workflow.Workflow, error) {
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
		&workflow.Invoke{Label: "commit", Service: "Ledger", Operation: "Commit", Invoker: inv,
			Inputs: map[string]string{"fail": "fail"}},
	}}
	return workflow.New("score-check", root)
}

// flowInput derives instance i of client c from the seed alone. Exactly one
// instance in every ten of a client faults, at a seed-chosen slot, so the
// compensated share does not vary from seed to seed.
func flowInput(seed int64, c, i int) (vars map[string]any, status string, approved bool) {
	rng := splitmix(uint64(seed)<<24 ^ uint64(c+1)<<56 ^ uint64(i))
	ssn := fmt.Sprintf("%03d-%02d-%04d", rng.Intn(1000), rng.Intn(100), rng.Intn(10000))
	password := "weak" + randomText(&rng, 2)
	if rng.Intn(2) == 0 {
		password = "Aa1" + randomText(&rng, 9)
	}
	block := splitmix(uint64(seed)<<24 ^ uint64(c+1)<<56 ^ uint64(i/10) ^ 1<<55)
	fail := i%10 == block.Intn(10)
	score, err := services.CreditScoreOf(ssn)
	approved = err == nil && score >= services.ApprovalThreshold && security.DefaultPolicy.Check(password) == nil
	status = workflow.StatusCompleted
	if fail {
		status = workflow.StatusCompensated
	}
	return map[string]any{"ssn": ssn, "password": password, "fail": fail}, status, approved
}

func flowInputsHash(seed int64) uint64 {
	h := fnv.New64a()
	for i := 0; i < 64; i++ {
		vars, status, _ := flowInput(seed, 0, i)
		fmt.Fprintf(h, "%v%s", vars, status)
	}
	return h.Sum64()
}

func (s *flowSystem) do(ctx context.Context, c, i int) error {
	vars, status, approved := flowInput(s.seed, c, i)
	id := fmt.Sprintf("c%d-%06d", c, i)
	span := s.rec.begin(layerClient)
	res, err := s.orch.Start(ctx, id, "score-check", vars)
	s.rec.end(span)
	if err != nil {
		return err
	}
	s.started[c] = append(s.started[c], flowStart{id: id, status: status})
	if res.Status != status {
		return fmt.Errorf("instance %s ended %s (%s), the seed predicts %s", id, res.Status, res.Err, status)
	}
	if status == workflow.StatusCompleted && res.Vars["approved"] != approved {
		return fmt.Errorf("instance %s approved=%v, want %v", id, res.Vars["approved"], approved)
	}
	return nil
}

// settle audits every instance started so far: terminal where the seed
// predicts, and a journal without problems.
func (s *flowSystem) settle() error {
	for _, starts := range s.started {
		for _, st := range starts {
			a, ok := s.orch.Audit(st.id)
			if !ok {
				return fmt.Errorf("instance %s has no audit", st.id)
			}
			if a.Status != st.status {
				return fmt.Errorf("instance %s audits as %s, want %s", st.id, a.Status, st.status)
			}
			if p := a.Problems(); len(p) > 0 {
				return fmt.Errorf("instance %s: %v", st.id, p)
			}
		}
	}
	return nil
}

// restart closes the journal and reopens its directory the way a restarted
// socflow does, timing open → definitions registered → pending set known,
// then checks that every acknowledged instance came back field for field.
func (s *flowSystem) restart() (time.Duration, error) {
	before := s.orch.Audits()
	if err := s.orch.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := s.open(); err != nil {
		return 0, err
	}
	pending := s.orch.Pending()
	ready := time.Since(t0)
	if len(pending) > 0 {
		return 0, fmt.Errorf("%d instances pending after reopen (first %s)", len(pending), pending[0])
	}
	after := s.orch.Audits()
	if len(after) != len(before) {
		return 0, fmt.Errorf("reopen recovered %d instances, %d were acknowledged", len(after), len(before))
	}
	for id, want := range before {
		if got := after[id]; !reflect.DeepEqual(got, want) {
			return 0, fmt.Errorf("instance %s changed across reopen:\n got %+v\nwant %+v", id, got, want)
		}
	}
	return ready, nil
}

func (s *flowSystem) counts() map[string]float64 {
	out := map[string]float64{
		"workflow.compensated": float64(s.compensated.Load()),
		// Right after a restart the recovery report counts every record
		// the directory holds.
		"abs.wal.records":        float64(s.orch.Recovery().LastIndex),
		"abs.workflow.instances": float64(len(s.orch.Instances())),
	}
	for _, starts := range s.started {
		out["workflow.instances"] += float64(len(starts))
	}
	if s.fs != nil {
		s.fs.counts(out)
	}
	return out
}

func (s *flowSystem) close() error { return s.orch.Close() }

func flowLayers(b budget, counts map[string]float64, ops float64, vals map[string]float64) {
	vals["workflow.self_us"] = b.perOp(b.self[layerClient])
	vals["workflow.invoker_us"] = b.perOp(b.self[layerInvoker])
	vals["workflow.records_per_instance"] = counts["abs.wal.records"] / counts["abs.workflow.instances"]
	vals["workflow.compensated_share"] = counts["workflow.compensated"] / counts["workflow.instances"]
	walLayers(b, counts, ops, vals)
}
