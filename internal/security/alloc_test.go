//go:build !race

package security

import "testing"

// TestPBKDF2AllocCeiling pins the kernel's allocation budget: keying the
// HMAC and the output block, nothing per iteration. The per-iteration
// hmac.New loop it replaced made 24,581 allocations for this call.
func TestPBKDF2AllocCeiling(t *testing.T) {
	password, salt := []byte("passphrase"), []byte("0123456789abcdef")
	allocs := testing.AllocsPerRun(10, func() {
		if len(PBKDF2(password, salt, DefaultIterations, 32)) != 32 {
			t.Fatal("short key")
		}
	})
	if allocs > 16 {
		t.Errorf("PBKDF2(4096 iterations, 32 bytes) allocates %.0f times, budget is 16", allocs)
	}
}
