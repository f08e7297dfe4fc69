package xmlkit

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// genTree builds a random DOM tree from a seed: bounded depth and fanout,
// element names from a fixed alphabet, text from printable runes, markup
// characters, a backslash, a tab and a newline.
func genTree(rng *rand.Rand, depth int) *Node {
	names := []string{"svc", "op", "param", "doc", "item"}
	n := NewElement(names[rng.Intn(len(names))])
	if rng.Intn(2) == 0 {
		n.SetAttr("id", genText(rng))
	}
	if depth <= 0 {
		if rng.Intn(2) == 0 {
			n.AppendChild(NewText(genText(rng)))
		}
		return n
	}
	kids := rng.Intn(3)
	if kids == 0 && rng.Intn(2) == 0 {
		n.AppendChild(NewText(genText(rng)))
	}
	for i := 0; i < kids; i++ {
		n.AppendChild(genTree(rng, depth-1))
	}
	return n
}

func genText(rng *rand.Rand) string {
	alphabet := "abcXYZ019 <>&\"'.\\\t\n"
	n := rng.Intn(12) + 1
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	s := strings.TrimSpace(b.String())
	if s == "" {
		return "x"
	}
	return s
}

// shape extracts the structural identity of a tree: names, attrs, and
// text per node in document order (ignoring whitespace normalization).
func shape(n *Node) []string {
	var out []string
	_ = n.Walk(func(x *Node) error {
		switch x.Type {
		case ElementNode:
			entry := "<" + x.Name
			for _, a := range x.Attrs {
				entry += " " + a.Name + "=" + a.Value
			}
			out = append(out, entry+">")
		case TextNode:
			if s := strings.TrimSpace(x.Data); s != "" {
				out = append(out, "text:"+s)
			}
		}
		return nil
	})
	return out
}

func TestDOMSerializeParsePreservesShape(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := genTree(rng, 3)
		doc := &Document{Root: root}
		s := doc.String()
		if s == "" {
			return false
		}
		parsed, err := ParseDocumentString(s)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(shape(root), shape(parsed.Root))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestXPathDescendantSupersetOfChildProperty(t *testing.T) {
	// Property: //name matches at least the nodes /root/.../name does,
	// and every Query result is an element with the queried name.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := genTree(rng, 3)
		doc := &Document{Root: root}
		reparsed, err := ParseDocumentString(doc.String())
		if err != nil {
			return false
		}
		for _, name := range []string{"svc", "op", "param"} {
			desc, err := Query(reparsed.Root, "//"+name)
			if err != nil {
				return false
			}
			for _, d := range desc {
				if d.Type != ElementNode || d.Name != name {
					return false
				}
			}
			children, err := Query(reparsed.Root, name)
			if err != nil {
				return false
			}
			if len(children) > len(desc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSAXCountMatchesDOMProperty(t *testing.T) {
	// Property: the SAX element counts equal the DOM element counts for
	// the same document.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := genTree(rng, 3)
		doc := &Document{Root: root}
		s := doc.String()
		counter := NewCountingHandler()
		if err := ParseString(s, counter); err != nil {
			return false
		}
		parsed, err := ParseDocumentString(s)
		if err != nil {
			return false
		}
		domCounts := map[string]int{}
		_ = parsed.Root.Walk(func(x *Node) error {
			if x.Type == ElementNode {
				domCounts[x.Name]++
			}
			return nil
		})
		return reflect.DeepEqual(map[string]int(counter.Elements), domCounts)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
