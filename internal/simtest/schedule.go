// Package simtest is the deterministic simulation harness of the
// dependability stack: whole multi-replica scenarios — resilient
// clients, hosts, response caches, circuit breakers, fault injection,
// workflows, the elastic front door and its autoscaler — run in-process
// on a seeded in-memory network and a virtual clock, so a run is
// byte-for-byte reproducible from its seed and a failing schedule
// shrinks to a minimal replay. The harness is the
// correctness backstop of the reliability unit: property-based workloads
// explore schedules no hand-written test would, and invariant checkers
// validate every step against the contracts the layers promise.
package simtest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
)

// Step kinds a schedule is made of.
const (
	// StepCall invokes Service.Op as the given client with Args.
	StepCall = "call"
	// StepWorkflow runs the harness's two-invoke composition workflow as
	// the given client (Args feed the workflow's initial variables).
	StepWorkflow = "workflow"
	// StepKill marks a replica dead: deliveries fail like a refused
	// connection until it restarts.
	StepKill = "kill"
	// StepRestart boots a dead (or live) replica as a fresh incarnation:
	// new process state, empty response cache, same network identity.
	StepRestart = "restart"
	// StepAdvance moves the virtual clock forward by AdvanceMs — how
	// breaker cooldowns elapse and cache TTLs age in a simulation.
	StepAdvance = "advance"
	// StepPublish registers Service into the target replica's durable
	// directory (write-ahead logged to its simulated disk). A successful
	// step is an ACK: the entry must be discoverable on that replica after
	// any crash — the acked ⇒ durable invariant.
	StepPublish = "publish"
	// StepUnpublish durably removes Service from the replica's directory.
	StepUnpublish = "unpublish"
	// StepRenew durably renews Service's lease on the replica.
	StepRenew = "renew"
	// StepWorkflowStart starts a durable workflow instance (definition
	// Def, initial variables from Args) on the target replica's
	// journaled orchestrator. When AfterAppends > 0 the replica's power
	// is cut at that journal-append ordinal — which lands the kill
	// mid-workflow, possibly during a later step's appends.
	StepWorkflowStart = "wfstart"
	// StepWorkflowResume resumes every pending workflow instance on the
	// target replica — after a restart, replay drives each instance
	// from its exact journaled step.
	StepWorkflowResume = "wfresume"
	// StepWindow offers Rate requests through the front door over one
	// virtual second, then the autoscaler ticks (Rate 0 is a quiesce
	// window). Only a world with Config.Door has a front door.
	StepWindow = "window"
	// StepKillReplica power-cuts the newest healthy replica in the front
	// door's rotation, chosen when the step runs.
	StepKillReplica = "kill-replica"
	// StepProbe runs the world's health checker once against one static
	// replica (Check over its fault-injected link): the probe feeds the
	// QoS registry and may demote or promote the replica in every
	// client's failover.
	StepProbe = "probe"
)

// Step is one event of a simulation schedule. The zero-value fields not
// used by a kind are omitted from JSON so shrunk schedules stay
// readable.
type Step struct {
	Kind      string            `json:"kind"`
	Client    int               `json:"client,omitempty"`
	Service   string            `json:"service,omitempty"`
	Op        string            `json:"op,omitempty"`
	Args      map[string]string `json:"args,omitempty"`
	Replica   int               `json:"replica,omitempty"`
	AdvanceMs int64             `json:"advanceMs,omitempty"`
	// Def names the workflow definition a wfstart step instantiates.
	Def string `json:"def,omitempty"`
	// AfterAppends arms a power cut on the replica after that many more
	// workflow-journal appends (0 = no cut).
	AfterAppends int64 `json:"afterAppends,omitempty"`
	// Rate is a window step's request count.
	Rate int `json:"rate,omitempty"`
}

// Schedule is a complete, self-contained simulation input: the seed that
// derives every fault decision plus the explicit step sequence. Replaying
// a schedule byte-identically reproduces the run that generated it.
type Schedule struct {
	Seed  int64  `json:"seed"`
	Steps []Step `json:"steps"`
}

// MarshalIndent renders the schedule as indented JSON for replay logs.
func (s Schedule) MarshalIndent() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Sprintf("<unmarshalable schedule: %v>", err)
	}
	return string(b)
}

// ParseSchedule decodes a schedule produced by MarshalIndent.
func ParseSchedule(data []byte) (Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("simtest: parsing schedule: %w", err)
	}
	return s, nil
}

// ClusterSchedule is the elastic-cluster scenario for a world with a
// front door: one window per profile entry (its requests per virtual
// second), a kill-replica step opening each window listed in kills, and
// three quiesce windows that let the last drains finish.
func ClusterSchedule(seed int64, profile []int, kills ...int) Schedule {
	s := Schedule{Seed: seed}
	for w, rate := range slices.Concat(profile, []int{0, 0, 0}) {
		if slices.Contains(kills, w) {
			s.Steps = append(s.Steps, Step{Kind: StepKillReplica})
		}
		s.Steps = append(s.Steps, Step{Kind: StepWindow, Rate: rate})
	}
	return s
}

// Workload pools: small fixed vocabularies keep the generated argument
// space dense enough that cache hits, repeated inputs and cross-client
// collisions actually happen.
var (
	ssnPool = []string{
		"123-45-6789", "111-22-3333", "987-65-4321", "555-00-1234",
		"222-33-4444", "not-an-ssn", // one invalid form exercises the error path
	}
	passwordPool = []string{
		"correct horse battery staple", "Tr0ub4dor&3", "hunter2",
		"aA1!aA1!aA1!", "qwerty",
	}
	itemPool  = []string{"widget", "gadget", "sprocket", "flange"}
	pricePool = []string{"1.25", "9.99", "42.00", "0.50"}
	// dirSvcPool names the services the directory steps publish and
	// remove. Small on purpose: re-publishes, renewals of missing entries
	// and unpublish races all happen within a run.
	dirSvcPool = []string{"MazeSolver", "WeatherMap", "TranslateX", "CaptchaGen", "LedgerSync"}
	// endpointPool gives published entries a couple of distinct endpoints
	// so re-publishes actually change state.
	endpointPool = []string{"sim://alpha", "sim://beta", "sim://gamma"}
	categoryPool = []string{"games/maze", "data/weather", "text/translate"}
	// wfDefPool names the canned durable workflow definitions every
	// replica's orchestrator registers at boot (see workflows.go).
	wfDefPool = []string{DefOrderSaga, DefFanoutCheck, DefRetryPoll}
	// wfItemsPool feeds order-saga ForEach bodies (comma-separated so a
	// list fits the string-valued Args map).
	wfItemsPool = []string{"widget", "widget,gadget", "sprocket,flange,widget"}
	// wfPasswordsPool feeds fanout-check's parallel ForEach sweep.
	wfPasswordsPool = []string{"hunter2,qwerty", "Tr0ub4dor&3,aA1!aA1!aA1!,hunter2"}
)

// GenSchedule derives a property-based workload from a seed: a random
// mix of repository-service calls across logical clients, workflow
// compositions, replica kills/restarts, health probes and virtual-clock
// advances. The
// same (seed, steps, clients, replicas) always yields the same schedule.
func GenSchedule(seed int64, steps, clients, replicas int) Schedule {
	if steps < 1 {
		steps = 1
	}
	if clients < 1 {
		clients = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	rng := rand.New(rand.NewSource(seed))
	sched := Schedule{Seed: seed, Steps: make([]Step, 0, steps)}
	for i := 0; i < steps; i++ {
		sched.Steps = append(sched.Steps, genStep(rng, clients, replicas))
	}
	return sched
}

func genStep(rng *rand.Rand, clients, replicas int) Step {
	client := rng.Intn(clients)
	switch p := rng.Float64(); {
	case p < 0.42:
		return genCall(rng, client)
	case p < 0.50:
		return Step{Kind: StepWorkflow, Client: client, Args: map[string]string{
			"ssn":      pick(rng, ssnPool),
			"password": pick(rng, passwordPool),
		}}
	case p < 0.56:
		return genWorkflowStart(rng, replicas)
	case p < 0.60:
		return Step{Kind: StepWorkflowResume, Replica: rng.Intn(replicas)}
	case p < 0.65:
		return Step{Kind: StepPublish, Replica: rng.Intn(replicas),
			Service: pick(rng, dirSvcPool), Args: map[string]string{
				"endpoint": pick(rng, endpointPool),
				"category": pick(rng, categoryPool),
			}}
	case p < 0.68:
		return Step{Kind: StepUnpublish, Replica: rng.Intn(replicas), Service: pick(rng, dirSvcPool)}
	case p < 0.71:
		return Step{Kind: StepRenew, Replica: rng.Intn(replicas), Service: pick(rng, dirSvcPool)}
	case p < 0.77:
		return Step{Kind: StepProbe, Replica: rng.Intn(replicas)}
	case p < 0.83:
		return Step{Kind: StepAdvance, AdvanceMs: 50 + rng.Int63n(2950)}
	case p < 0.91:
		return Step{Kind: StepKill, Replica: rng.Intn(replicas)}
	default:
		return Step{Kind: StepRestart, Replica: rng.Intn(replicas)}
	}
}

// genWorkflowStart instantiates a canned durable workflow. Roughly a
// third of the starts arm a mid-workflow power cut, at an append
// ordinal low enough to land inside the instance's own run — including
// mid-Parallel and mid-ForEach.
func genWorkflowStart(rng *rand.Rand, replicas int) Step {
	st := Step{Kind: StepWorkflowStart, Replica: rng.Intn(replicas), Def: pick(rng, wfDefPool)}
	switch st.Def {
	case DefOrderSaga:
		st.Args = map[string]string{
			"ssn":      pick(rng, ssnPool),
			"items":    pick(rng, wfItemsPool),
			"quantity": strconv.Itoa(1 + rng.Intn(3)),
			"price":    pick(rng, pricePool),
		}
	case DefFanoutCheck:
		st.Args = map[string]string{
			"ssn":       pick(rng, ssnPool),
			"password":  pick(rng, passwordPool),
			"passwords": pick(rng, wfPasswordsPool),
		}
	case DefRetryPoll:
		st.Args = map[string]string{
			"ssn":    pick(rng, ssnPool),
			"rounds": strconv.Itoa(1 + rng.Intn(3)),
		}
	}
	if rng.Float64() < 0.35 {
		st.AfterAppends = 2 + rng.Int63n(16)
	}
	return st
}

// GenWorkflowSchedule derives a workflow-heavy workload: mostly
// wfstart/wfresume with enough kills, restarts and clock advances that
// instances crash mid-flight and settle across incarnations. Used by
// the workflow smoke gate, which needs hundreds of instances per run.
func GenWorkflowSchedule(seed int64, steps, clients, replicas int) Schedule {
	if steps < 1 {
		steps = 1
	}
	if clients < 1 {
		clients = 1
	}
	if replicas < 1 {
		replicas = 1
	}
	rng := rand.New(rand.NewSource(seed))
	sched := Schedule{Seed: seed, Steps: make([]Step, 0, steps)}
	for i := 0; i < steps; i++ {
		switch p := rng.Float64(); {
		case p < 0.34:
			sched.Steps = append(sched.Steps, genWorkflowStart(rng, replicas))
		case p < 0.48:
			sched.Steps = append(sched.Steps, Step{Kind: StepWorkflowResume, Replica: rng.Intn(replicas)})
		case p < 0.58:
			sched.Steps = append(sched.Steps, Step{Kind: StepKill, Replica: rng.Intn(replicas)})
		case p < 0.72:
			sched.Steps = append(sched.Steps, Step{Kind: StepRestart, Replica: rng.Intn(replicas)})
		case p < 0.86:
			sched.Steps = append(sched.Steps, Step{Kind: StepAdvance, AdvanceMs: 50 + rng.Int63n(1950)})
		default:
			sched.Steps = append(sched.Steps, genCall(rng, rng.Intn(clients)))
		}
	}
	return sched
}

func genCall(rng *rand.Rand, client int) Step {
	st := Step{Kind: StepCall, Client: client}
	switch p := rng.Float64(); {
	case p < 0.28:
		st.Service, st.Op = "CreditScore", "Score"
		st.Args = map[string]string{"ssn": pick(rng, ssnPool)}
	case p < 0.52:
		st.Service, st.Op = "RandomString", "CheckStrength"
		st.Args = map[string]string{"password": pick(rng, passwordPool)}
	case p < 0.62:
		// CreateCart takes no arguments; nil Args survives the JSON round
		// trip (an empty map would be dropped by omitempty and parse back
		// as nil, breaking schedule equality).
		st.Service, st.Op = "ShoppingCart", "CreateCart"
	case p < 0.78:
		st.Service, st.Op = "ShoppingCart", "AddItem"
		st.Args = map[string]string{
			"cart":     cartID(rng),
			"item":     pick(rng, itemPool),
			"quantity": strconv.Itoa(1 + rng.Intn(3)),
			"price":    pick(rng, pricePool),
		}
	case p < 0.88:
		st.Service, st.Op = "ShoppingCart", "Total"
		st.Args = map[string]string{"cart": cartID(rng)}
	case p < 0.94:
		st.Service, st.Op = "ShoppingCart", "RemoveItem"
		st.Args = map[string]string{"cart": cartID(rng), "item": pick(rng, itemPool)}
	default:
		st.Service, st.Op = "ShoppingCart", "Checkout"
		st.Args = map[string]string{"cart": cartID(rng)}
	}
	return st
}

// cartID guesses a low cart id: CreateCart issues them sequentially from
// 1, so small guesses hit live carts often enough to exercise state and
// missing carts often enough to exercise the error paths.
func cartID(rng *rand.Rand) string {
	return strconv.Itoa(1 + rng.Intn(5))
}

func pick(rng *rand.Rand, pool []string) string {
	return pool[rng.Intn(len(pool))]
}
