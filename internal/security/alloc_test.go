//go:build !race

package security

import "testing"

// TestPBKDF2AllocCeiling pins the kernel's allocation budget, measured 4:
// the scratch kernel (pads, saved midstates, round block, read-back
// buffer, counter), the inner and the outer sha256 digest, and the output
// key. Nothing per iteration. The keyed hmac.New loop before it made 10;
// the per-iteration hmac.New loop before that, 24,581.
func TestPBKDF2AllocCeiling(t *testing.T) {
	password, salt := []byte("passphrase"), []byte("0123456789abcdef")
	allocs := testing.AllocsPerRun(10, func() {
		if len(PBKDF2(password, salt, DefaultIterations, 32)) != 32 {
			t.Fatal("short key")
		}
	})
	if allocs > 6 {
		t.Errorf("PBKDF2(4096 iterations, 32 bytes) allocates %.0f times, budget is 6", allocs)
	}
}
