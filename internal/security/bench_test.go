package security

import (
	"crypto/sha256"
	"testing"
)

// BenchmarkPBKDF2 times one production derivation: 4096 iterations, one
// 32-byte output block, so 8,192 compressions after the keying.
func BenchmarkPBKDF2(b *testing.B) {
	password, salt := []byte("passphrase"), []byte("0123456789abcdef")
	b.ReportAllocs()
	for b.Loop() {
		PBKDF2(password, salt, DefaultIterations, 32)
	}
}

// BenchmarkCompressionFloor times the 8,192 one-block Writes of
// BenchmarkPBKDF2's rounds on one digest and nothing else: no midstate
// restored, no digest read back, no XOR. The gap between the two
// benchmarks is the kernel's cost above the hashing it cannot avoid.
func BenchmarkCompressionFloor(b *testing.B) {
	d := sha256.New()
	var block [sha256.BlockSize]byte
	b.ReportAllocs()
	for b.Loop() {
		for range 2 * DefaultIterations {
			d.Write(block[:])
		}
	}
}
