package xmlkit

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// NodeType discriminates DOM node kinds.
type NodeType int

const (
	// ElementNode is an XML element.
	ElementNode NodeType = iota
	// TextNode is character data.
	TextNode
	// CommentNode is an XML comment.
	CommentNode
)

// Node is a node of the DOM tree.
type Node struct {
	Type     NodeType
	Name     string // element name (ElementNode only)
	Data     string // text or comment content
	Attrs    []Attr
	Parent   *Node
	Children []*Node
}

// NewElement returns a detached element node.
func NewElement(name string) *Node { return &Node{Type: ElementNode, Name: name} }

// NewText returns a detached text node.
func NewText(data string) *Node { return &Node{Type: TextNode, Data: data} }

// AppendChild attaches child as the last child of n and returns child.
func (n *Node) AppendChild(child *Node) *Node {
	child.Parent = n
	n.Children = append(n.Children, child)
	return child
}

// RemoveChild detaches child from n; it reports whether child was found.
func (n *Node) RemoveChild(child *Node) bool {
	for i, c := range n.Children {
		if c == child {
			n.Children = append(n.Children[:i], n.Children[i+1:]...)
			child.Parent = nil
			return true
		}
	}
	return false
}

// SetAttr sets (or replaces) an attribute.
func (n *Node) SetAttr(name, value string) {
	for i := range n.Attrs {
		if n.Attrs[i].Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// Attr returns the value of the named attribute and whether it exists.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Text returns the concatenated text content of the subtree, trimmed.
func (n *Node) Text() string {
	var b strings.Builder
	var walk func(*Node)
	walk = func(x *Node) {
		if x.Type == TextNode {
			b.WriteString(x.Data)
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(n)
	return strings.TrimSpace(b.String())
}

// Elements returns the element children of n (skipping text/comments).
func (n *Node) Elements() []*Node {
	var out []*Node
	for _, c := range n.Children {
		if c.Type == ElementNode {
			out = append(out, c)
		}
	}
	return out
}

// Child returns the first element child with the given name, or nil.
func (n *Node) Child(name string) *Node {
	for _, c := range n.Children {
		if c.Type == ElementNode && c.Name == name {
			return c
		}
	}
	return nil
}

// ChildText returns Child(name).Text(), or "" if the child is absent.
func (n *Node) ChildText(name string) string {
	if c := n.Child(name); c != nil {
		return c.Text()
	}
	return ""
}

// Walk visits every node of the subtree in document order. Returning a
// non-nil error from fn aborts the walk.
func (n *Node) Walk(fn func(*Node) error) error {
	if err := fn(n); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := c.Walk(fn); err != nil {
			return err
		}
	}
	return nil
}

// Document is a parsed XML document.
type Document struct {
	Root *Node
}

// domBuilder builds a DOM via SAX events, demonstrating the layering the
// course teaches (DOM on top of streaming parse).
type domBuilder struct {
	BaseHandler
	doc   *Document
	stack []*Node
}

func (b *domBuilder) StartElement(name string, attrs []Attr) error {
	el := &Node{Type: ElementNode, Name: name, Attrs: attrs}
	if len(b.stack) == 0 {
		b.doc.Root = el
	} else {
		b.stack[len(b.stack)-1].AppendChild(el)
	}
	b.stack = append(b.stack, el)
	return nil
}

func (b *domBuilder) EndElement(string) error {
	b.stack = b.stack[:len(b.stack)-1]
	return nil
}

func (b *domBuilder) Characters(text string) error {
	if len(b.stack) == 0 {
		return nil // ignore whitespace outside the root
	}
	if strings.TrimSpace(text) == "" {
		return nil // drop ignorable whitespace
	}
	b.stack[len(b.stack)-1].AppendChild(&Node{Type: TextNode, Data: text})
	return nil
}

func (b *domBuilder) Comment(text string) error {
	if len(b.stack) == 0 {
		return nil
	}
	b.stack[len(b.stack)-1].AppendChild(&Node{Type: CommentNode, Data: text})
	return nil
}

// ParseDocument reads r whole and parses it into a Document.
func ParseDocument(r io.Reader) (*Document, error) {
	b := &domBuilder{doc: &Document{}}
	if err := Parse(r, b); err != nil {
		return nil, err
	}
	return b.doc, nil
}

// ParseDocumentString parses an in-memory document.
func ParseDocumentString(doc string) (*Document, error) {
	b := &domBuilder{doc: &Document{}}
	if err := ParseString(doc, b); err != nil {
		return nil, err
	}
	return b.doc, nil
}

// Header is the XML declaration Document.Write and the soap encoder put
// first.
const Header = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// Write serializes the document to w with 2-space indentation. It writes
// nothing and returns an ErrParse error if the tree holds what no XML
// document can: a name that is not one element or attribute name, or
// anything else for which the Scanner refuses what Write built, such as
// a comment holding "--" or an undeclared prefix.
func (d *Document) Write(w io.Writer) error {
	if d.Root == nil {
		return fmt.Errorf("%w: empty document", ErrParse)
	}
	out, err := appendNode([]byte(Header), d.Root, 0)
	if err != nil {
		return err
	}
	if err := scanAll(out); err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// scanAll reads a whole document and returns the Scanner's first error.
func scanAll(data []byte) error {
	s := AcquireScanner(data)
	defer ReleaseScanner(s)
	for {
		if kind, err := s.Next(); err != nil || kind == NoToken {
			return err
		}
	}
}

// String serializes the document to a string; it returns "" on error.
func (d *Document) String() string {
	var b strings.Builder
	if err := d.Write(&b); err != nil {
		return ""
	}
	return b.String()
}

func appendNode(dst []byte, n *Node, depth int) ([]byte, error) {
	for i := 0; i < depth; i++ {
		dst = append(dst, "  "...)
	}
	switch n.Type {
	case TextNode:
		return append(EscapeElementText(dst, n.Data), '\n'), nil
	case CommentNode:
		dst = append(append(dst, "<!--"...), n.Data...)
		return append(dst, "-->\n"...), nil
	}
	if err := checkName(n.Name); err != nil {
		return nil, err
	}
	dst = append(append(dst, '<'), n.Name...)
	for _, a := range n.Attrs {
		if err := checkName(a.Name); err != nil {
			return nil, err
		}
		dst = append(append(append(dst, ' '), a.Name...), `="`...)
		dst = append(EscapeAttrValue(dst, a.Value), '"')
	}
	switch {
	case len(n.Children) == 0:
		return append(dst, "/>\n"...), nil
	case len(n.Children) == 1 && n.Children[0].Type == TextNode:
		// A single text child renders inline: <a>text</a>.
		dst = EscapeElementText(append(dst, '>'), n.Children[0].Data)
	default:
		dst = append(dst, ">\n"...)
		for _, c := range n.Children {
			var err error
			if dst, err = appendNode(dst, c, depth+1); err != nil {
				return nil, err
			}
		}
		for i := 0; i < depth; i++ {
			dst = append(dst, "  "...)
		}
	}
	dst = append(append(append(dst, "</"...), n.Name...), '>')
	return append(dst, '\n'), nil
}

// checkName returns an ErrParse error unless name is one element or
// attribute name, by the Scanner's rule.
func checkName(name string) error {
	s := Scanner{data: []byte(name)}
	if _, err := s.scanName(true); err != nil || s.pos < len(name) {
		return fmt.Errorf("%w: %q is not an XML name", ErrParse, name)
	}
	return nil
}

// ElementNames returns the sorted distinct element names in the document —
// a convenience for tests and schema inference.
func (d *Document) ElementNames() []string {
	seen := map[string]bool{}
	if d.Root != nil {
		_ = d.Root.Walk(func(n *Node) error {
			if n.Type == ElementNode {
				seen[n.Name] = true
			}
			return nil
		})
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
