package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"soc/internal/cloud"
	"soc/internal/registry"
	"soc/internal/wal"
)

const (
	catalogEntries = 2000
	// churnBacklog entries per client are published during set-up, so that
	// an Unpublish drawn before a Publish still has a benchmark-owned entry
	// to remove and the seeded catalog stays intact. A client that joins the
	// cycle mid-block can meet that block's three Unpublishes and the next
	// block's three before any Publish: six is the worst case.
	churnBacklog = 6
	churnBlocks  = 200 // the op sequence is this many shuffled blocks of a hundred, cycled
)

const (
	opSearch = iota
	opGet
	opHeartbeat
	opPublish
	opUnpublish
)

// churnMix is one block: reads beside writes on the same layers. Reads take
// the registry's RCU snapshot and inverted index; writes take WAL append,
// fsync, the copy-on-write rebuild and, every 64th, a snapshot. There is no
// List in the mix: listing the 2000-entry catalog costs ~24 ms of JSON, a
// hundred Searches, so any share of it that is worth having turns the
// workload into a JSON benchmark and its p99 into a List figure.
var churnMix = [...]int{opSearch: 75, opGet: 15, opHeartbeat: 4, opPublish: 3, opUnpublish: 3}

type churnOp struct {
	kind   uint8
	target int // seeded entry the op reads or renews
}

// churnInputs is the seeded catalog and op sequence.
type churnInputs struct {
	entries []registry.Entry
	unique  []string // entries[i]'s planted term, found nowhere else
	common  []string // a vocabulary word entries[i]'s doc also holds
	seq     []churnOp
	hash    uint64
}

func newChurnInputs(seed int64, entries int) *churnInputs {
	rng := rand.New(rand.NewSource(seed))
	vocab := make([]string, 200)
	for i := range vocab {
		vocab[i] = "w" + strings.ToLower(randomText(rng, 6))
	}
	categories := []string{"finance/credit", "finance/loans", "security/encryption", "security/passwords",
		"compute/batch", "media/images", "commerce/cart", "messaging/buffers"}
	in := &churnInputs{}
	for i := 0; i < entries; i++ {
		// Distinct words, so that no other entry can outrank the planted
		// one on term frequency of the shared word.
		words := make([]string, 12)
		for w, v := range rng.Perm(len(vocab))[:len(words)] {
			words[w] = vocab[v]
		}
		unique := fmt.Sprintf("uq%05dx", i)
		in.unique = append(in.unique, unique)
		in.common = append(in.common, words[0])
		in.entries = append(in.entries, registry.Entry{
			Name:       fmt.Sprintf("svc-%05d", i),
			Namespace:  "http://soc.bench/" + unique,
			Doc:        strings.Join(words, " ") + " " + unique,
			Category:   categories[rng.Intn(len(categories))],
			Endpoint:   fmt.Sprintf("http://10.0.%d.%d:8080", i/250, i%250),
			Bindings:   []string{"soap", "rest"},
			Operations: []string{"Get" + vocab[rng.Intn(len(vocab))], "Put" + vocab[rng.Intn(len(vocab))]},
			Provider:   "bench",
		})
	}
	var block []uint8
	for kind, n := range churnMix {
		for ; n > 0; n-- {
			block = append(block, uint8(kind))
		}
	}
	h := fnv.New64a()
	for b := 0; b < churnBlocks; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			op := churnOp{kind: k, target: rng.Intn(entries)}
			in.seq = append(in.seq, op)
			fmt.Fprintf(h, "%d:%d,", op.kind, op.target)
		}
	}
	in.hash = h.Sum64()
	return in
}

// churnSystem is wsrepo's registry plane: registry.OpenDurable on a real
// directory behind registry.NewAPI, driven through registry.Client.
type churnSystem struct {
	dir string
	in  *churnInputs
	rec *recorder
	fs  *tracedFS // nil when untraced

	reg    *registry.DurableRegistry
	client *registry.Client
	// Per client: names it published and has not yet unpublished, oldest
	// first, and how many it has published in all.
	live      [][]string
	published []int
	gone      [][]string
}

func buildChurn(dir string, in *churnInputs, clients int, rec *recorder) (*churnSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &churnSystem{dir: dir, in: in, rec: rec,
		live: make([][]string, clients), published: make([]int, clients), gone: make([][]string, clients)}
	if err := s.open(); err != nil {
		return nil, err
	}
	for _, e := range in.entries {
		if err := s.reg.Publish(e); err != nil {
			return nil, fmt.Errorf("seeding catalog: %w", err)
		}
	}
	for c := 0; c < clients; c++ {
		for k := 0; k < churnBacklog; k++ {
			if err := s.publish(context.Background(), c); err != nil {
				return nil, fmt.Errorf("seeding backlog: %w", err)
			}
		}
	}
	return s, nil
}

func (s *churnSystem) open() error {
	osfs, err := wal.NewOSFS(s.dir)
	if err != nil {
		return err
	}
	var fs wal.FS = osfs
	if s.rec != nil {
		s.fs = newTracedFS(osfs, s.rec)
		fs = s.fs
	}
	reg, err := registry.OpenDurable(fs, registry.DurableOptions{})
	if err != nil {
		return err
	}
	var dir registry.Directory = reg
	if s.rec != nil {
		dir = tracedDirectory{reg, s.rec}
	}
	api := s.rec.handler(layerAPI, registry.NewAPI(dir))
	s.reg = reg
	s.client = &registry.Client{
		BaseURL:    "http://soc.bench",
		HTTPClient: &http.Client{Transport: cloud.HandlerTransport(api), Timeout: 30 * time.Second},
	}
	return nil
}

func (s *churnSystem) publish(ctx context.Context, c int) error {
	name := fmt.Sprintf("bench-c%d-%06d", c, s.published[c])
	e := s.in.entries[s.published[c]%len(s.in.entries)]
	e.Name = name
	e.Doc = "benchmark churn entry " + name
	if err := s.client.Publish(ctx, e); err != nil {
		return err
	}
	s.published[c]++
	s.live[c] = append(s.live[c], name)
	return nil
}

func (s *churnSystem) do(ctx context.Context, c, i int) error {
	op := s.in.seq[(i+c*7919)%len(s.in.seq)]
	id := s.rec.begin(layerClient)
	defer s.rec.end(id)
	want := &s.in.entries[op.target]
	switch op.kind {
	case opSearch:
		matches, err := s.client.Search(ctx, s.in.unique[op.target]+" "+s.in.common[op.target], 10)
		if err != nil {
			return err
		}
		if len(matches) == 0 || matches[0].Entry.Name != want.Name {
			return fmt.Errorf("search for %s: top hit is not %s (%d matches)", s.in.unique[op.target], want.Name, len(matches))
		}
	case opGet:
		got, err := s.client.Get(ctx, want.Name)
		if err != nil {
			return err
		}
		if got.Doc != want.Doc || got.Endpoint != want.Endpoint || got.Category != want.Category {
			return fmt.Errorf("get %s returned %+v", want.Name, got)
		}
	case opHeartbeat:
		return s.client.Heartbeat(ctx, want.Name)
	case opPublish:
		return s.publish(ctx, c)
	case opUnpublish:
		if len(s.live[c]) == 0 {
			return fmt.Errorf("client %d has nothing left to unpublish", c)
		}
		name := s.live[c][0]
		if err := s.client.Unpublish(ctx, name); err != nil {
			return err
		}
		s.live[c] = s.live[c][1:]
		s.gone[c] = append(s.gone[c], name)
	}
	return nil
}

func (s *churnSystem) settle() error { return nil }

// restart closes the registry and reopens its directory as a restarted
// wsrepo does, timing open → API serving its first lookup, then checks that
// every acknowledged publish, unpublish and lease renewal is there.
func (s *churnSystem) restart() (time.Duration, error) {
	before, err := json.Marshal(s.reg.List(false))
	if err != nil {
		return 0, err
	}
	if err := s.reg.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := s.open(); err != nil {
		return 0, err
	}
	if _, err := s.client.Get(context.Background(), s.in.entries[0].Name); err != nil {
		return 0, fmt.Errorf("first lookup after reopen: %w", err)
	}
	ready := time.Since(t0)
	after, err := json.Marshal(s.reg.List(false))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(before, after) {
		return 0, fmt.Errorf("directory changed across reopen (%d bytes before, %d after)", len(before), len(after))
	}
	for c := range s.live {
		for _, name := range s.live[c] {
			if _, err := s.reg.Get(name); err != nil {
				return 0, fmt.Errorf("acknowledged publish %s lost: %w", name, err)
			}
		}
		for _, name := range s.gone[c] {
			if _, err := s.reg.Get(name); err == nil {
				return 0, fmt.Errorf("acknowledged unpublish %s came back", name)
			}
		}
	}
	return ready, nil
}

func (s *churnSystem) counts() map[string]float64 {
	out := map[string]float64{}
	if s.fs != nil {
		s.fs.counts(out)
	}
	return out
}

func (s *churnSystem) close() error { return s.reg.Close() }

func churnLayers(b budget, counts map[string]float64, ops float64, vals map[string]float64) {
	vals["registry.client_self_us"] = b.perOp(b.self[layerClient])
	vals["registry.api_self_us"] = b.perOp(b.self[layerAPI])
	vals["registry.search_us"] = b.perCall(layerSearch)
	vals["registry.get_us"] = b.perCall(layerGet)
	vals["registry.mutate_us"] = b.perCall(layerMutate)
	walLayers(b, counts, ops, vals)
}

// tracedDirectory puts a span around each Directory call the API makes.
type tracedDirectory struct {
	registry.Directory
	rec *recorder
}

func (d tracedDirectory) Publish(e registry.Entry) error {
	id := d.rec.begin(layerMutate)
	defer d.rec.end(id)
	return d.Directory.Publish(e)
}

func (d tracedDirectory) Unpublish(name string) error {
	id := d.rec.begin(layerMutate)
	defer d.rec.end(id)
	return d.Directory.Unpublish(name)
}

func (d tracedDirectory) Heartbeat(name string) error {
	id := d.rec.begin(layerMutate)
	defer d.rec.end(id)
	return d.Directory.Heartbeat(name)
}

func (d tracedDirectory) Get(name string) (registry.Entry, error) {
	id := d.rec.begin(layerGet)
	defer d.rec.end(id)
	return d.Directory.Get(name)
}

func (d tracedDirectory) Search(query string, limit int) ([]registry.Match, error) {
	id := d.rec.begin(layerSearch)
	defer d.rec.end(id)
	return d.Directory.Search(query, limit)
}
