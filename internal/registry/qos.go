package registry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// QoS is the measured quality-of-service record of an endpoint — the
// paper's §V motivates exactly this: free public services are "too slow
// to use" and "often offline", so a consumer-centric broker (the
// Tsai/Chen consumer-centric SOA of reference [27]) must rank candidates
// by observed quality, not just keyword relevance.
type QoS struct {
	// Uptime is the observed availability in [0, 1].
	Uptime float64 `json:"uptime"`
	// MeanRTT is the observed mean round-trip time.
	MeanRTT time.Duration `json:"meanRTT"`
	// Samples is how many probes back the record.
	Samples int `json:"samples"`
}

// QoSRegistry decorates a Registry with QoS records and quality-weighted
// search.
type QoSRegistry struct {
	*Registry
	mu  sync.RWMutex // guards qos; CheckNow feeds it from concurrent probes
	qos map[string]QoS
}

// NewQoS wraps a registry.
func NewQoS(r *Registry) *QoSRegistry {
	return &QoSRegistry{Registry: r, qos: map[string]QoS{}}
}

// ReportQoS records (or replaces) the measured QoS of a service.
func (r *QoSRegistry) ReportQoS(name string, q QoS) error {
	if q.Uptime < 0 || q.Uptime > 1 || q.Samples < 0 || q.MeanRTT < 0 {
		return fmt.Errorf("%w: qos %+v", ErrInvalid, q)
	}
	if _, err := r.Get(name); err != nil {
		return err
	}
	r.mu.Lock()
	r.qos[name] = q
	r.mu.Unlock()
	return nil
}

// ObserveProbe folds one health-probe outcome into the service's QoS
// record incrementally: uptime becomes the running success ratio and
// MeanRTT the running mean of successful-probe round trips. This is the
// bridge from reliability.HealthChecker's OnProbe hook into discovery —
// replicas observed down sink in SearchQoS and drop out of Dependable.
func (r *QoSRegistry) ObserveProbe(name string, up bool, rtt time.Duration) error {
	if rtt < 0 {
		return fmt.Errorf("%w: negative rtt %v", ErrInvalid, rtt)
	}
	if _, err := r.Get(name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	q := r.qos[name]
	n := float64(q.Samples)
	upVal := 0.0
	if up {
		upVal = 1
		// Only successful probes measure a real round trip; failures are
		// often instant (connection refused) and would flatter the mean.
		succ := q.Uptime * n // successful samples so far
		q.MeanRTT = time.Duration((float64(q.MeanRTT)*succ + float64(rtt)) / (succ + 1))
	}
	q.Uptime = (q.Uptime*n + upVal) / (n + 1)
	q.Samples++
	r.qos[name] = q
	return nil
}

// QoSOf returns the recorded QoS and whether one exists.
func (r *QoSRegistry) QoSOf(name string) (QoS, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	q, ok := r.qos[name]
	return q, ok
}

// QoSMatch is a quality-weighted search result.
type QoSMatch struct {
	Entry     Entry   `json:"entry"`
	Relevance float64 `json:"relevance"`
	Quality   float64 `json:"quality"`
	Score     float64 `json:"score"`
}

// rttReference is the RTT at which the latency factor halves.
const rttReference = 200 * time.Millisecond

// quality maps a QoS record to [0, 1]: uptime discounted by latency.
// Services with no record get a neutral prior of 0.5, so measured-good
// services outrank unknowns and unknowns outrank measured-bad ones.
func quality(q QoS, ok bool) float64 {
	if !ok || q.Samples == 0 {
		return 0.5
	}
	latencyFactor := float64(rttReference) / float64(rttReference+q.MeanRTT)
	return q.Uptime * latencyFactor
}

// qosScored is a quality-weighted candidate before entry materialization.
type qosScored struct {
	name      string
	relevance float64
	quality   float64
	score     float64
}

// SearchQoS ranks live entries by relevance × quality. It scores from
// the unsorted candidate set, sorts exactly once on the final
// quality-weighted score (the relevance ordering Search would impose is
// thrown away here, so computing it would be wasted work), and copies
// full entries only for the top `limit` survivors. It holds the
// registry's read lock throughout and takes the QoS lock inside it, so
// the lock order is registry → QoS.
func (r *QoSRegistry) SearchQoS(query string, limit int) ([]QoSMatch, error) {
	qTokens := tokenize(query)
	if len(qTokens) == 0 {
		return nil, fmt.Errorf("%w: empty query", ErrInvalid)
	}
	reg := r.Registry
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	ranked := reg.searchScored(qTokens, reg.now())
	weighted := make([]qosScored, 0, len(ranked))
	for _, m := range ranked {
		q, ok := r.QoSOf(m.name)
		qual := quality(q, ok)
		weighted = append(weighted, qosScored{
			name:      m.name,
			relevance: m.score,
			quality:   qual,
			score:     m.score * qual,
		})
	}
	sort.Slice(weighted, func(i, j int) bool {
		if weighted[i].score != weighted[j].score {
			return weighted[i].score > weighted[j].score
		}
		return weighted[i].name < weighted[j].name
	})
	if limit > 0 && len(weighted) > limit {
		weighted = weighted[:limit]
	}
	out := make([]QoSMatch, len(weighted))
	for i, w := range weighted {
		out[i] = QoSMatch{
			Entry:     *reg.entries[w.name],
			Relevance: w.relevance,
			Quality:   w.quality,
			Score:     w.score,
		}
	}
	return out, nil
}

// Dependable returns live entries whose uptime meets the threshold,
// sorted by quality descending — the broker-side answer to "which free
// services can a class assignment actually rely on".
func (r *QoSRegistry) Dependable(minUptime float64) []QoSMatch {
	var out []QoSMatch
	for _, e := range r.List(true) {
		q, ok := r.QoSOf(e.Name)
		if !ok || q.Uptime < minUptime {
			continue
		}
		out = append(out, QoSMatch{Entry: e, Quality: quality(q, true), Score: quality(q, true)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Quality != out[j].Quality {
			return out[i].Quality > out[j].Quality
		}
		return out[i].Entry.Name < out[j].Entry.Name
	})
	return out
}
