package wsdl

import (
	"bytes"
	"os"
	"testing"
)

// BenchmarkParseContract parses a committed golden contract: the DOM
// build behind every WSDL a client fetches.
func BenchmarkParseContract(b *testing.B) {
	data, err := os.ReadFile("../../contracts/ShoppingCart.wsdl")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
