package xmlkit

import (
	"fmt"
	"strings"
	"testing"
)

func benchDoc(services int) string {
	var b strings.Builder
	b.WriteString("<catalog>")
	for i := 0; i < services; i++ {
		fmt.Fprintf(&b, `<service id="s%d" kind="rest"><name>Svc%d</name><endpoint>http://venus/s%d</endpoint></service>`, i, i, i)
	}
	b.WriteString("</catalog>")
	return b.String()
}

// BenchmarkScan is the bare tokenizer under SAX and the DOM: one
// checked pass, nothing decoded or copied out.
func BenchmarkScan(b *testing.B) {
	doc := []byte(benchDoc(200))
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	s := AcquireScanner(doc)
	defer ReleaseScanner(s)
	for b.Loop() {
		s.Reset(doc)
		for {
			kind, err := s.Next()
			if err != nil {
				b.Fatal(err)
			}
			if kind == NoToken {
				break
			}
		}
	}
}

func BenchmarkSAXParse(b *testing.B) {
	doc := benchDoc(200)
	b.SetBytes(int64(len(doc)))
	for b.Loop() {
		c := NewCountingHandler()
		if err := ParseString(doc, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDOMParse(b *testing.B) {
	doc := benchDoc(200)
	b.SetBytes(int64(len(doc)))
	for b.Loop() {
		if _, err := ParseDocumentString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXPathQuery(b *testing.B) {
	doc, err := ParseDocumentString(benchDoc(200))
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		nodes, err := Query(doc.Root, "/catalog/service[@kind='rest']/name")
		if err != nil || len(nodes) != 200 {
			b.Fatalf("%d %v", len(nodes), err)
		}
	}
}

func BenchmarkSchemaValidate(b *testing.B) {
	s, err := NewSchema("catalog",
		ElementDecl{Name: "catalog", Children: []ChildDecl{{Name: "service", Min: 1, Max: -1}}},
		ElementDecl{Name: "service",
			Attrs:    []AttrDecl{{Name: "id", Required: true}, {Name: "kind", Required: true}},
			Children: []ChildDecl{{Name: "name", Min: 1, Max: 1}, {Name: "endpoint", Min: 1, Max: 1}}},
		ElementDecl{Name: "name"},
		ElementDecl{Name: "endpoint"},
	)
	if err != nil {
		b.Fatal(err)
	}
	doc, err := ParseDocumentString(benchDoc(200))
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if err := s.Validate(doc); err != nil {
			b.Fatal(err)
		}
	}
}
