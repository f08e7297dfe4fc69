//go:build !race

package security

import "testing"

// TestPBKDF2AllocCeiling pins the kernel's allocation budget, measured 3:
// the scratch kernel (saved chaining words, pads, round block, counter,
// state view), its one sha256 digest, and the output key. Nothing per
// iteration. Restoring marshalled 108-byte states through two digests
// made 4; the keyed hmac.New loop before that, 10; the per-iteration
// hmac.New loop before that, 24,581.
func TestPBKDF2AllocCeiling(t *testing.T) {
	password, salt := []byte("passphrase"), []byte("0123456789abcdef")
	allocs := testing.AllocsPerRun(10, func() {
		if len(PBKDF2(password, salt, DefaultIterations, 32)) != 32 {
			t.Fatal("short key")
		}
	})
	if allocs > 5 {
		t.Errorf("PBKDF2(4096 iterations, 32 bytes) allocates %.0f times, budget is 5", allocs)
	}
}

// TestRandomStringAllocCeiling pins RandomString at one allocation, the
// returned string, for up to 64 characters: the bytes are drawn into a
// stack buffer. Drawing one byte at a time into a separate output slice
// made 2.
func TestRandomStringAllocCeiling(t *testing.T) {
	for _, n := range []int{16, 64} {
		allocs := testing.AllocsPerRun(100, func() {
			if s, err := RandomString(n, AlphabetPassword); err != nil || len(s) != n {
				t.Fatalf("RandomString(%d) = %q, %v", n, s, err)
			}
		})
		if allocs > 1 {
			t.Errorf("RandomString(%d) allocates %.0f times, budget is 1", n, allocs)
		}
	}
}
