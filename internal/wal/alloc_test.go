//go:build !race

package wal

import (
	"fmt"
	"testing"
)

// TestAppendAllocCeiling: the append path — frame encode, CRC, write,
// sync bookkeeping — allocates nothing over the in-memory disk
// (measured 0 at both sizes; MemFS's own buffer growth amortizes below
// one per append).
func TestAppendAllocCeiling(t *testing.T) {
	for _, size := range []int{64, 1024} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			l, _, err := Open(NewMemFS(1), Options{SegmentBytes: 1 << 30})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i)
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if _, err := l.Append(payload); err != nil {
					t.Fatalf("Append: %v", err)
				}
			})
			if allocs > 0 {
				t.Errorf("Append of %d B allocates %.1f/op, want 0", size, allocs)
			}
		})
	}
}

// TestRecoverAllocCeiling: reopening a 512-record log with one snapshot
// — the restart path a replica pays after a crash — measured 319, given
// 10 %.
func TestRecoverAllocCeiling(t *testing.T) {
	fs := NewMemFS(2)
	opts := Options{SegmentBytes: 16 << 10}
	l, _, err := Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	payload := make([]byte, 128)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := l.Append(payload); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
	}
	appendN(256)
	if err := l.Snapshot(make([]byte, 4096)); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendN(256)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := Open(fs, opts); err != nil {
			t.Fatalf("Open: %v", err)
		}
	})
	t.Logf("recover allocs %.1f", allocs)
	if allocs > 350 {
		t.Errorf("Open (recover) allocates %.1f/op, ceiling 350", allocs)
	}
}
