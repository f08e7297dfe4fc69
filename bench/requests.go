package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"time"

	"soc/internal/cloud"
	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/respcache"
	"soc/internal/services"
	"soc/internal/telemetry"
)

const (
	replicas = 3
	// replicaCap is far above the client count: the workloads measure the
	// dispatch path, not admission control, so nothing may be shed.
	replicaCap = 64
	cacheSize  = 1024
)

// requestStack is the consumer → front door → replica hosts path of
// soccluster, assembled in one process: host.Client's transport is the
// front door's handler, so no socket is crossed.
type requestStack struct {
	fd      *cloud.FrontDoor
	reps    []*cloud.Replica
	caches  []*respcache.Cache
	tracers []*telemetry.Tracer
	client  *host.Client
	rec     *recorder
}

func buildRequestStack(rec *recorder) (*requestStack, error) {
	s := &requestStack{rec: rec}
	doorTracer := telemetry.NewTracer(0)
	s.fd = cloud.NewFrontDoor(cloud.FrontDoorConfig{Tracer: doorTracer})
	s.tracers = append(s.tracers, doorTracer)
	for i := 0; i < replicas; i++ {
		h := host.New()
		for _, mk := range []func() (*core.Service, error){
			services.NewCompute, services.NewRandomString, services.NewCreditScore, services.NewEncryption,
		} {
			svc, err := mk()
			if err != nil {
				return nil, err
			}
			rec.wrapOperations(svc)
			if err := h.Mount(svc); err != nil {
				return nil, err
			}
		}
		s.caches = append(s.caches, h.UseResponseCache(cacheSize, time.Hour))
		s.tracers = append(s.tracers, h.Tracer())
		rep := cloud.NewLocalReplica(fmt.Sprintf("replica-%d", i), rec.handler(layerHost, h), replicaCap)
		s.reps = append(s.reps, rep)
		s.fd.Add(rep)
	}
	clientTracer := telemetry.NewTracer(0)
	s.tracers = append(s.tracers, clientTracer)
	s.client = &host.Client{
		BaseURL: "http://soc.bench",
		HTTPClient: &http.Client{
			Transport: rec.roundTripper(layerCloud, cloud.HandlerTransport(s.fd)),
			Timeout:   30 * time.Second,
		},
		Tracer: clientTracer,
	}
	return s, nil
}

func (s *requestStack) counts() map[string]float64 {
	st := s.fd.Stats()
	out := map[string]float64{
		"cloud.admitted": float64(st.Admitted),
		"cloud.shed":     float64(st.Shed()),
		"cloud.errored":  float64(st.Errored),
	}
	var lo, hi uint64
	for i, rep := range s.reps {
		p := rep.Picks()
		if i == 0 || p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	out["cloud.picks_max"], out["cloud.picks_min"] = float64(hi), float64(lo)
	for _, c := range s.caches {
		hits, misses := c.Stats()
		out["respcache.hits"] += float64(hits)
		out["respcache.misses"] += float64(misses)
	}
	for _, t := range s.tracers {
		out["telemetry.spans"] += float64(t.Recorded())
	}
	return out
}

// requestLayers are the per-layer metrics of the two request workloads.
func requestLayers(b budget, counts map[string]float64, ops float64, vals map[string]float64) {
	vals["hostclient.self_us"] = b.perOp(b.self[layerClient])
	vals["cloud.self_us"] = b.perOp(b.self[layerCloud])
	vals["host.self_us"] = b.perOp(b.self[layerHost])
	vals["handler.self_us"] = b.perOp(b.self[layerHandler])
	vals["cloud.admitted"] = counts["cloud.admitted"]
	vals["cloud.shed"] = counts["cloud.shed"]
	vals["cloud.errored"] = counts["cloud.errored"]
	vals["cloud.pick_imbalance"] = counts["cloud.picks_max"] / max(counts["cloud.picks_min"], 1)
	if lookups := counts["respcache.hits"] + counts["respcache.misses"]; lookups > 0 {
		vals["respcache.hit_ratio"] = counts["respcache.hits"] / lookups
	}
	vals["respcache.misses_per_op"] = counts["respcache.misses"] / ops
	vals["telemetry.spans_per_op"] = counts["telemetry.spans"] / ops
}

func (s *requestStack) settle() error { return nil }
func (s *requestStack) close() error  { return nil }

// call is one traced SDK call over the REST binding.
func (s *requestStack) call(ctx context.Context, service, op string, args core.Values) (core.Values, error) {
	id := s.rec.begin(layerClient)
	defer s.rec.end(id)
	return s.client.Call(ctx, service, op, args)
}

// ---- dispatch-light ----

const (
	opCollatz = iota
	opGenerateREST
	opGenerateSOAP
)

const (
	hotKeys        = 64
	generateLength = 16
	lightBlocks    = 2000 // the op sequence is this many shuffled blocks of ten, cycled
)

type lightOp struct {
	kind uint8
	n    int64
}

// lightInputs is dispatch-light's input: per ten ops, four REST
// Compute.CollatzSteps over 64 hot n (response-cache hits once warm), three
// REST and three SOAP RandomString.Generate (never cacheable, full dispatch
// and codec). Handler cost is close to nothing, so the dispatch layers do
// the work.
type lightInputs struct {
	seq   []lightOp
	steps map[int64]float64 // the benchmark's own Collatz table
	hash  uint64
}

func newLightInputs(seed int64) *lightInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &lightInputs{steps: make(map[int64]float64, hotKeys)}
	hot := make([]int64, 0, hotKeys)
	for len(hot) < hotKeys {
		n := 1 + rng.Int63n(100000)
		if _, dup := in.steps[n]; dup {
			continue
		}
		in.steps[n] = float64(collatzSteps(uint64(n)))
		hot = append(hot, n)
	}
	block := []uint8{opCollatz, opCollatz, opCollatz, opCollatz,
		opGenerateREST, opGenerateREST, opGenerateREST, opGenerateSOAP, opGenerateSOAP, opGenerateSOAP}
	h := fnv.New64a()
	for b := 0; b < lightBlocks; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			op := lightOp{kind: k}
			if k == opCollatz {
				op.n = hot[rng.Intn(hotKeys)]
			}
			in.seq = append(in.seq, op)
			fmt.Fprintf(h, "%d:%d,", op.kind, op.n)
		}
	}
	in.hash = h.Sum64()
	return in
}

// collatzSteps is the reference the service's answers are checked against.
func collatzSteps(n uint64) int {
	steps := 0
	for n != 1 {
		if n%2 == 0 {
			n /= 2
		} else {
			n = 3*n + 1
		}
		steps++
	}
	return steps
}

type lightSystem struct {
	*requestStack
	in *lightInputs
}

func (s *lightSystem) do(ctx context.Context, c, i int) error {
	// Clients walk the same cycle from different offsets.
	op := s.in.seq[(i+c*7919)%len(s.in.seq)]
	switch op.kind {
	case opCollatz:
		out, err := s.call(ctx, "Compute", "CollatzSteps", core.Values{"n": op.n})
		if err != nil {
			return err
		}
		if got, _ := out["steps"].(float64); got != s.in.steps[op.n] {
			return fmt.Errorf("CollatzSteps(%d) = %v, want %v", op.n, out["steps"], s.in.steps[op.n])
		}
	case opGenerateREST:
		out, err := s.call(ctx, "RandomString", "Generate", core.Values{"length": int64(generateLength)})
		if err != nil {
			return err
		}
		if v, _ := out["value"].(string); len(v) != generateLength {
			return fmt.Errorf("Generate(%d) over REST = %q", generateLength, out["value"])
		}
	default:
		id := s.rec.begin(layerClient)
		out, err := s.client.CallSOAP(ctx, "RandomString", "Generate",
			services.NamespacePrefix+"randomstring", core.Values{"length": int64(generateLength)})
		s.rec.end(id)
		if err != nil {
			return err
		}
		if len(out["value"]) != generateLength {
			return fmt.Errorf("Generate(%d) over SOAP = %q", generateLength, out["value"])
		}
	}
	return nil
}

// ---- crypto-heavy ----

// cryptoSystem alternates, per client, Encryption.Encrypt of a fresh
// plaintext under a fresh passphrase with Decrypt of the ciphertext it just
// got. PBKDF2 in the handler is ~99 % of the work; Decrypt is declared
// idempotent, so every call also takes the response cache's miss → fill →
// evict path (each key is new and the working set outgrows the cache).
type cryptoSystem struct {
	*requestStack
	state []cryptoState
}

type cryptoState struct {
	rng                               *rand.Rand
	passphrase, plaintext, ciphertext string
}

func newCryptoSystem(stack *requestStack, seed int64, clients int) *cryptoSystem {
	s := &cryptoSystem{requestStack: stack, state: make([]cryptoState, clients)}
	for c := range s.state {
		s.state[c].rng = rand.New(rand.NewSource(seed*1000003 + int64(c)))
	}
	return s
}

const alnum = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// splitmix is a seedable generator small enough to make per operation:
// inputs derived from (seed, client, index) need no shared state.
type splitmix uint64

func (s *splitmix) Intn(n int) int {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

func randomText(rng interface{ Intn(int) int }, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alnum[rng.Intn(len(alnum))]
	}
	return string(b)
}

func (s *cryptoSystem) do(ctx context.Context, c, i int) error {
	st := &s.state[c]
	if st.ciphertext == "" {
		st.passphrase, st.plaintext = randomText(st.rng, 20), randomText(st.rng, 48)
		out, err := s.call(ctx, "Encryption", "Encrypt", core.Values{"passphrase": st.passphrase, "plaintext": st.plaintext})
		if err != nil {
			return err
		}
		ct, _ := out["ciphertext"].(string)
		if ct == "" {
			return fmt.Errorf("Encrypt returned no ciphertext: %v", out)
		}
		st.ciphertext = ct
		return nil
	}
	out, err := s.call(ctx, "Encryption", "Decrypt", core.Values{"passphrase": st.passphrase, "ciphertext": st.ciphertext})
	st.ciphertext = ""
	if err != nil {
		return err
	}
	if out["plaintext"] != st.plaintext {
		return fmt.Errorf("Decrypt(Encrypt(x)) = %q, want %q", out["plaintext"], st.plaintext)
	}
	return nil
}
