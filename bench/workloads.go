package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// workload is one traffic mix and the stack it runs on. Names are stable:
// later issues cite them.
type workload struct {
	name string
	// clients is the closed loop's client count on a machine with nproc CPUs.
	clients func(nproc int) int
	// durable workloads write a real directory and are restarted from it.
	durable bool
	// fixedWork makes -seconds set the number of operations of the timed
	// phase (serialRate × seconds) instead of its duration.
	fixedWork bool
	// serialRate is about what one client completes per second on the
	// sizing machine; it sizes the fixed-length phases and nothing else.
	serialRate float64
	// setupReps and recoverReps are how often a run sets up and restarts at
	// the least; it goes on until each has also taken repeatShare of -seconds.
	setupReps, recoverReps int

	build func(e *env, rec *recorder) (system, error)
	micro func(e *env) []microbench
	// layers turns the traced phase's budget and counter deltas over ops
	// operations into the workload's per-layer metrics.
	layers     func(b budget, counts map[string]float64, ops float64, vals map[string]float64)
	inputsHash func(seed int64, scale float64) uint64
}

// upToFour is the load model's client count: min(nproc, 4).
func upToFour(nproc int) int { return max(1, min(nproc, 4)) }

var workloads = []*workload{
	{
		// Handler cost ≈ 0: cloud, callplane, host, rest, soap, respcache and
		// telemetry do nearly all the work. A framing, dispatch or contention
		// change shows here; a crypto change must not.
		name: "dispatch-light", clients: upToFour, serialRate: 30000, setupReps: 5, recoverReps: 5,
		build: func(e *env, rec *recorder) (system, error) {
			in := newLightInputs(e.cfg.seed)
			stack, err := buildRequestStack(rec)
			if err != nil {
				return nil, err
			}
			return &lightSystem{requestStack: stack, in: in}, nil
		},
		micro: func(*env) []microbench {
			return []microbench{microSOAP, microCallplane, microInvoke, microRespcache, microTelemetry}
		},
		layers:     requestLayers,
		inputsHash: func(seed int64, _ float64) uint64 { return newLightInputs(seed).hash },
	},
	{
		// The mirror image: services/security (PBKDF2) do ≈ 99 % of the work
		// on the same stack and path, and the response cache is used for
		// writes (miss → fill → evict) instead of reads.
		name: "crypto-heavy", clients: upToFour, serialRate: 190, setupReps: 5, recoverReps: 5,
		build: func(e *env, rec *recorder) (system, error) {
			stack, err := buildRequestStack(rec)
			if err != nil {
				return nil, err
			}
			return newCryptoSystem(stack, e.cfg.seed, e.clients), nil
		},
		micro:  func(*env) []microbench { return []microbench{microPBKDF2, microRespcache} },
		layers: requestLayers,
		inputsHash: func(seed int64, _ float64) uint64 {
			rng := rand.New(rand.NewSource(seed * 1000003))
			h := fnv.New64a()
			fmt.Fprint(h, randomText(rng, 20), randomText(rng, 48))
			return h.Sum64()
		},
	},
	{
		// workflow (interpreter, JSON journal records) and wal (append, fsync,
		// snapshot, compaction) on a real disk. One client: at the seed the
		// orchestrator's snapshot races a concurrent instance's append and
		// loses its record (TestConcurrentOrchestration fails too), so two
		// clients would fail the durability check, not measure anything.
		name: "workflow-durable", clients: func(int) int { return 1 }, durable: true, fixedWork: true,
		serialRate: 150, setupReps: 3, recoverReps: 9,
		build: func(e *env, rec *recorder) (system, error) {
			dir, err := e.freshDir()
			if err != nil {
				return nil, err
			}
			return buildFlow(dir, e.cfg.seed, e.clients, e.cfg.scale, rec)
		},
		micro: func(e *env) []microbench {
			return []microbench{microWorkflow(e.cfg.seed), microWAL(e)}
		},
		layers:     flowLayers,
		inputsHash: func(seed int64, _ float64) uint64 { return flowInputsHash(seed) },
	},
	{
		// Writes beside reads on the same layers; with a 90/10 mix p50 is a
		// read figure and p99 a write figure, so a read gain bought with
		// costlier publishes shows.
		name: "registry-churn", clients: upToFour, durable: true, serialRate: 1500, setupReps: 3, recoverReps: 3,
		build: func(e *env, rec *recorder) (system, error) {
			in := newChurnInputs(e.cfg.seed, scaled(catalogEntries, e.cfg.scale))
			dir, err := e.freshDir()
			if err != nil {
				return nil, err
			}
			return buildChurn(dir, in, e.clients, rec)
		},
		micro: func(e *env) []microbench {
			in := newChurnInputs(e.cfg.seed, scaled(catalogEntries, e.cfg.scale))
			return []microbench{microSearch(in), microWAL(e)}
		},
		layers: churnLayers,
		inputsHash: func(seed int64, scale float64) uint64 {
			return newChurnInputs(seed, scaled(catalogEntries, scale)).hash
		},
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// restart, for the two request workloads, which hold no durable state:
// tear the serving stack down, build it again and answer the first ops
// requests of client 0's sequence — what a consumer waits for when the
// cluster is bounced. One answer would make this a 0.3 ms figure that is all
// allocation, which on the sizing machine moved 40 % with the neighbours'
// memory traffic (the first manifest was refused for it); some 30 ms of
// cold-cache requests move as little as the timed phase does.
func (s *requestStack) restart(ops int, do func(ctx context.Context, c, i int) error) (time.Duration, error) {
	ctx := context.Background()
	t0 := time.Now()
	fresh, err := buildRequestStack(s.rec)
	if err != nil {
		return 0, err
	}
	*s = *fresh
	for i := 0; i < ops; i++ {
		if err := do(ctx, 0, i); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

const (
	lightRestartOps  = 1000 // 400 lookups over 64 hot keys: the three caches are mostly full again
	cryptoRestartOps = 8    // four Encrypt / Decrypt round trips
)

func (s *lightSystem) restart() (time.Duration, error) {
	return s.requestStack.restart(lightRestartOps, s.do)
}

func (s *cryptoSystem) restart() (time.Duration, error) {
	return s.requestStack.restart(cryptoRestartOps, s.do)
}
