// Package xmlkit is the XML data representation and processing substrate
// of CSE445 unit 4: SAX-style streaming parsing, a DOM tree model, an
// XPath-subset evaluator, a lightweight schema validator, and an
// XSLT-subset stylesheet processor. One hand-written tokenizer, Scanner,
// reads all XML in the package: SAX Parse is a loop over it, the DOM is
// built from SAX events, and soc/internal/soap decodes envelopes on it
// directly. It checks well-formedness in the same pass, and the escapers
// beside it (EscapeElementText, EscapeAttrValue, which Document.Write
// uses too) write only what it accepts.
package xmlkit

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrParse reports malformed XML.
var ErrParse = errors.New("xmlkit: parse error")

// Attr is a name/value attribute pair.
type Attr struct {
	Name  string
	Value string
}

// Handler receives SAX events. Any method may return an error to abort
// the parse.
type Handler interface {
	// StartDocument is called once before any other event.
	StartDocument() error
	// EndDocument is called once after all other events.
	EndDocument() error
	// StartElement is called for each opening tag.
	StartElement(name string, attrs []Attr) error
	// EndElement is called for each closing tag.
	EndElement(name string) error
	// Characters is called for text content (may be called multiple
	// times per text node).
	Characters(text string) error
	// ProcessingInstruction is called for <?target data?>.
	ProcessingInstruction(target, data string) error
	// Comment is called for <!-- ... -->.
	Comment(text string) error
}

// BaseHandler is a no-op Handler; embed it to implement only the events
// you care about.
type BaseHandler struct{}

func (BaseHandler) StartDocument() error                            { return nil }
func (BaseHandler) EndDocument() error                              { return nil }
func (BaseHandler) StartElement(string, []Attr) error               { return nil }
func (BaseHandler) EndElement(string) error                         { return nil }
func (BaseHandler) Characters(string) error                         { return nil }
func (BaseHandler) ProcessingInstruction(target, data string) error { return nil }
func (BaseHandler) Comment(string) error                            { return nil }

var _ Handler = BaseHandler{}

// Parse reads the document from r whole, then scans it, pushing events
// into h. Element and attribute names arrive as local names, text and
// attribute values decoded. Scanner checks well-formedness (every start
// tag closed, a single root element, XML 1.0 characters) as it goes.
func Parse(r io.Reader, h Handler) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrParse, err)
	}
	return parse(data, h)
}

// ParseString is Parse over an in-memory document.
func ParseString(doc string, h Handler) error {
	return parse([]byte(doc), h)
}

func parse(data []byte, h Handler) error {
	if h == nil {
		return fmt.Errorf("%w: nil handler", ErrParse)
	}
	if err := h.StartDocument(); err != nil {
		return err
	}
	s := AcquireScanner(data)
	defer ReleaseScanner(s)
	var text []byte
	for {
		kind, err := s.Next()
		if err != nil {
			return err
		}
		switch kind {
		case NoToken:
			return h.EndDocument()
		case StartToken:
			attrs := make([]Attr, len(s.Attrs()))
			for i, a := range s.Attrs() {
				attrs[i].Name = string(localName(a.Name))
				if attrs[i].Value, err = AttrValue(a.Value); err != nil {
					return err
				}
			}
			err = h.StartElement(string(s.LocalName()), attrs)
		case EndToken:
			err = h.EndElement(string(s.LocalName()))
		case TextToken:
			if text, err = s.AppendTo(text[:0]); err == nil {
				err = h.Characters(string(text))
			}
		case CommentToken:
			err = h.Comment(string(s.RawText()))
		case ProcInstToken:
			err = h.ProcessingInstruction(string(s.Name()), string(s.RawText()))
		}
		if err != nil {
			return err
		}
	}
}

// CountingHandler tallies SAX events — useful both as an example handler
// and for cheap document statistics without building a tree.
type CountingHandler struct {
	BaseHandler
	Elements map[string]int
	Chars    int
	MaxDepth int
	depth    int
}

// NewCountingHandler returns a ready-to-use CountingHandler.
func NewCountingHandler() *CountingHandler {
	return &CountingHandler{Elements: make(map[string]int)}
}

func (c *CountingHandler) StartElement(name string, _ []Attr) error {
	c.Elements[name]++
	c.depth++
	if c.depth > c.MaxDepth {
		c.MaxDepth = c.depth
	}
	return nil
}

func (c *CountingHandler) EndElement(string) error {
	c.depth--
	return nil
}

func (c *CountingHandler) Characters(text string) error {
	c.Chars += len(strings.TrimSpace(text))
	return nil
}
