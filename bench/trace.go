package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"soc/internal/core"
)

// layer names one module boundary the benchmark wraps from outside.
type layer uint8

const (
	layerClient  layer = iota // the SDK call: host.Client, registry.Client, Orchestrator.Start
	layerCloud                // RoundTripper around the front door
	layerHost                 // http.Handler around one replica host
	layerHandler              // core.Operation.Handler
	layerAPI                  // http.Handler around registry.NewAPI
	layerSearch               // registry.Directory.Search
	layerGet                  // registry.Directory.Get
	layerMutate               // registry.Directory writes
	layerInvoker              // workflow.Invoker
	layerWrite                // wal.File.Write
	layerSync                 // wal.File.Sync
	layerDirSync              // wal.FS.SyncDir
	layerRename               // wal.FS.Rename
	layerCreate               // wal.FS.Create
	numLayers
)

var layerNames = [numLayers]string{
	"client", "cloud", "host", "handler", "registry.api", "registry.search", "registry.get",
	"registry.mutate", "workflow.invoker", "wal.write", "wal.fsync",
	"wal.dirsync", "wal.rename", "wal.create",
}

// span is one timed call into a layer. parent indexes the span that was
// open when this one began (-1 for an op's root); op numbers the client
// operation it belongs to.
type span struct {
	layer      layer
	parent     int32
	op         int32
	start, end time.Duration
}

// recorder keeps the traced phase's spans in memory. The traced phase has
// one client and every layer of the stack calls the next synchronously, so
// the span open most recently is the parent of the next one: a stack, not
// context plumbing, links them — which is what lets a wal.File.Sync deep
// under a Publish attribute itself to the one op in flight.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int32
	ops   int32
	bad   string // first violation of the nesting the fold depends on
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span; on a nil recorder (the untraced phases) it is free.
func (r *recorder) begin(l layer) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	} else {
		r.ops++
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{layer: l, parent: parent, op: r.ops - 1, start: time.Since(r.t0)})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.open)
	if n == 0 || r.open[n-1] != id {
		if r.bad == "" {
			r.bad = fmt.Sprintf("span %d (%s) ended while it was not the innermost open span", id, layerNames[r.spans[id].layer])
		}
		return
	}
	r.open = r.open[:n-1]
	r.spans[id].end = time.Since(r.t0)
}

// reset drops what the warm-up recorded.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans, r.ops = r.spans[:0], 0
}

// budget is the fold of a span list: per layer, the self time (its spans
// minus the part their children cover) and the call count; root is the
// total of the ops' root spans.
type budget struct {
	self  [numLayers]time.Duration
	total [numLayers]time.Duration
	calls [numLayers]int
	root  time.Duration
	ops   int
}

func fold(spans []span) budget {
	var b budget
	for _, s := range spans {
		d := s.end - s.start
		b.self[s.layer] += d
		b.total[s.layer] += d
		b.calls[s.layer]++
		if s.parent < 0 {
			b.root += d
			b.ops++
		} else {
			b.self[spans[s.parent].layer] -= d
		}
	}
	return b
}

func (b budget) selfSum() time.Duration {
	var sum time.Duration
	for _, d := range b.self {
		sum += d
	}
	return sum
}

// perOp is a duration's share of one traced op, in microseconds.
func (b budget) perOp(d time.Duration) float64 {
	if b.ops == 0 {
		return 0
	}
	return float64(d) / float64(time.Microsecond) / float64(b.ops)
}

// perCall is the mean duration of one call into the layer, in microseconds.
func (b budget) perCall(l layer) float64 {
	if b.calls[l] == 0 {
		return 0
	}
	return float64(b.total[l]) / float64(time.Microsecond) / float64(b.calls[l])
}

// dumpOps bounds the trace file: the first ops of the traced phase are
// enough to read a request's tree, and a full dump of a 30,000-op phase
// would write tens of megabytes beside the disk being measured.
const dumpOps = 1000

type dumpSpan struct {
	ID      int     `json:"id"`
	Op      int32   `json:"op"`
	Layer   string  `json:"layer"`
	Parent  int32   `json:"parent"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// dump writes the first dumpOps ops' spans to path.
func (r *recorder) dump(path string) error {
	var out []dumpSpan
	for i, s := range r.spans {
		if s.op >= dumpOps {
			break
		}
		out = append(out, dumpSpan{
			ID: i, Op: s.op, Layer: layerNames[s.layer], Parent: s.parent,
			StartUS: float64(s.start) / float64(time.Microsecond),
			EndUS:   float64(s.end) / float64(time.Microsecond),
		})
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// The wrappers below are installed only when a recorder is: the untraced
// phases run the stack exactly as its constructors return it.

func (r *recorder) roundTripper(l layer, rt http.RoundTripper) http.RoundTripper {
	if r == nil {
		return rt
	}
	return tracedRT{r, l, rt}
}

type tracedRT struct {
	r  *recorder
	l  layer
	rt http.RoundTripper
}

func (t tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.r.begin(t.l)
	defer t.r.end(id)
	return t.rt.RoundTrip(req)
}

func (r *recorder) handler(l layer, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := r.begin(l)
		defer r.end(id)
		h.ServeHTTP(w, req)
	})
}

// wrapOperations swaps every operation handler of svc for a traced one;
// it must run before the service is mounted.
func (r *recorder) wrapOperations(svc *core.Service) {
	if r == nil {
		return
	}
	for _, op := range svc.Operations() {
		inner := op.Handler
		op.Handler = func(ctx context.Context, in core.Values) (core.Values, error) {
			id := r.begin(layerHandler)
			defer r.end(id)
			return inner(ctx, in)
		}
	}
}
