package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// sampleBuf holds one client's per-op samples outside the Go heap. A
// million samples on the heap would triple the live heap of the stack
// under test and so cut its garbage-collection frequency: the benchmark
// would measure a gentler collector than a deployment runs under.
// Anonymous mapped memory is invisible to the collector's pacer.
type sampleBuf struct {
	mem  []byte
	data []uint64
	n    int
}

func newSampleBuf(capacity int) (*sampleBuf, error) {
	if capacity < 1 {
		capacity = 1
	}
	mem, err := syscall.Mmap(-1, 0, capacity*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d samples: %w", capacity, err)
	}
	return &sampleBuf{mem: mem, data: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), capacity)}, nil
}

// add records an op that ended `end` after the phase began and took lat.
// The end offset is kept in microseconds and the latency in nanoseconds,
// 32 bits each (71 minutes and 4.2 s; longer latencies saturate).
func (b *sampleBuf) add(end, lat time.Duration) bool {
	if b.n == len(b.data) {
		return false
	}
	l := uint64(lat)
	if l > 1<<32-1 {
		l = 1<<32 - 1
	}
	b.data[b.n] = uint64(end/time.Microsecond)<<32 | l
	b.n++
	return true
}

func (b *sampleBuf) free() error { return syscall.Munmap(b.mem) }

// phaseStats is what one load phase measured, merged over its clients.
type phaseStats struct {
	ops, failed int
	elapsed     time.Duration
	// windows[i] counts correct completions in the i-th complete window.
	windows []int
	window  time.Duration
	// samples counts the latency samples inside complete windows;
	// windowP50 and windowP99 are each such window's own percentiles, in
	// nanoseconds.
	samples              int
	windowP50, windowP99 []float64
}

// summarize merges the clients' samples. Failed ops carry no sample: they
// are counted in failed and miss every window.
func summarize(bufs []*sampleBuf, failed int, elapsed, window time.Duration) phaseStats {
	ps := phaseStats{failed: failed, elapsed: elapsed, window: window}
	complete := int(elapsed / window)
	ps.windows = make([]int, complete)
	perWindow := make([][]uint32, complete)
	for _, b := range bufs {
		ps.ops += b.n
		for _, s := range b.data[:b.n] {
			w := int(time.Duration(s>>32) * time.Microsecond / window)
			if w < complete {
				ps.windows[w]++
				perWindow[w] = append(perWindow[w], uint32(s))
			}
		}
	}
	ps.ops += failed
	for _, w := range perWindow {
		if len(w) > 0 {
			sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
			ps.samples += len(w)
			ps.windowP50 = append(ps.windowP50, quantile(w, 0.5))
			ps.windowP99 = append(ps.windowP99, quantile(w, 0.99))
		}
	}
	return ps
}

// The timing metrics are taken per window, and a run reports the quartile
// of its windows on the quiet side: the 75th percentile of the windows'
// throughput, the 25th of their p50, p99 and CPU time per op. On a shared machine
// interference — a neighbour stealing the CPU, the disk stalling — only
// ever adds time, and it comes in bursts a second or so long; the quiet
// quartile reads the same whether a quarter or three quarters of the
// windows were disturbed, where the median flips once half are. Sizing on
// the 2-vCPU sandbox: crypto-heavy's p99 spread over ten runs was 31 % for
// the whole-phase figure, 28 % for the median of windows in a bad batch, and
// 8–14 % for the quiet quartile in every batch. The price: a stall that
// touches fewer than three windows in four is not seen. Nothing in this
// stack has so long a period — collections come every few milliseconds,
// snapshots every 64 appends.

// throughput is correct completions per second in the quiet quartile of
// the complete windows.
func (ps phaseStats) throughput() float64 {
	if len(ps.windows) == 0 {
		return float64(ps.ops-ps.failed) / ps.elapsed.Seconds()
	}
	rates := make([]float64, len(ps.windows))
	for i, n := range ps.windows {
		rates[i] = float64(n) / ps.window.Seconds()
	}
	return quartile(rates, 0.75)
}

// latency is the quiet quartile of the windows' percentiles, in microseconds.
func (ps phaseStats) latency(windowPercentiles []float64) float64 {
	return quartile(windowPercentiles, 0.25) / 1000
}

// cpuPerOp divides the CPU time between consecutive marks by the operations
// that ended between them.
func cpuPerOp(bufs []*sampleBuf, marks []cpuMark) []float64 {
	var out []float64
	prev, prevOps := cpuMark{}, 0
	for _, m := range marks {
		ops := 0
		for _, b := range bufs {
			us := uint64(m.at / time.Microsecond)
			ops += sort.Search(b.n, func(i int) bool { return b.data[i]>>32 > us })
		}
		if ops > prevOps {
			out = append(out, float64(m.cpu-prev.cpu)/float64(ops-prevOps))
		}
		prev, prevOps = m, ops
	}
	return out
}

// cpuPerOpQuiet is CPU time per operation in the quiet quartile of the
// phase's windows, in microseconds; of the whole phase when it was shorter
// than a window.
func (p phase) cpuPerOpQuiet() float64 {
	if len(p.cpuPerOp) == 0 {
		return float64(p.cpu) / float64(time.Microsecond) / float64(p.ops)
	}
	return quartile(p.cpuPerOp, 0.25) / 1000
}

// quartile reads the q-quantile of unsorted float values.
func quartile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quantile reads the q-quantile of sorted values, interpolating linearly
// between the two nearest ranks so the figure is not pinned to a sample.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

func median(v []float64) float64 { return quartile(v, 0.5) }

func quartileDuration(v []time.Duration, q float64) time.Duration {
	f := make([]float64, len(v))
	for i, d := range v {
		f[i] = float64(d)
	}
	return time.Duration(quartile(f, q))
}
