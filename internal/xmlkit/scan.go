package xmlkit

import (
	"bytes"
	"fmt"
	"sync"
	"unicode/utf8"
)

// Scanner is a pull-mode XML tokenizer over an in-memory document, and the
// package's one XML reader: SAX Parse, the DOM built on it and
// soc/internal/soap's envelope codec all read through it. Names,
// attributes and text are returned as sub-slices of the input buffer, so a
// full scan performs no heap allocation beyond what the caller copies out.
//
// The scanner checks well-formedness in the same single pass: tags nest
// and match, exactly one root element is present and nothing but
// whitespace, comments, processing instructions and a DOCTYPE lies
// outside it; whitespace separates attributes; every character is
// an XML 1.0 Char in well-formed UTF-8, character references included;
// only the five predefined entities are known; "]]>" does not occur in
// content, nor "--" inside a comment; element and attribute names are XML
// names with at most one colon; a DOCTYPE comes at most once, before the
// root, and is skipped; and an XML declaration comes first, if at all (a
// byte-order mark may precede it), and names no version but 1.0 and no
// encoding but UTF-8. There is no DTD processing and no charset
// conversion. It is not safe for concurrent use; acquire one per goroutine
// with AcquireScanner and return it with ReleaseScanner.
type Scanner struct {
	data []byte
	pos  int

	// Current token state, valid until the next call to Next.
	name  []byte // element name (raw, with prefix) or PI target
	text  []byte // raw text, comment or instruction (entities still encoded)
	cdata bool   // current Text token came from a CDATA section
	attrs []RawAttr
	// attrIndex indexes attrs by name once a start tag has more than
	// linearAttrs of them (seenAttr).
	attrIndex []int32

	// openElems tracks open element names for end-tag matching; the
	// slices alias data so the stack itself is allocation-free after
	// warm-up.
	openElems []([]byte)
	roots     int
	doctype   bool
	// pendingEnd is set after a self-closing tag: the next call to Next
	// synthesizes the matching EndToken without consuming input.
	pendingEnd bool
}

// TokenKind discriminates scanner tokens.
type TokenKind int

const (
	// NoToken is returned with io-level completion: the document ended.
	NoToken TokenKind = iota
	// StartToken is an opening (or self-closing) tag.
	StartToken
	// EndToken is a closing tag (synthesized for self-closing tags).
	EndToken
	// TextToken is character data or a CDATA section.
	TextToken
	// CommentToken is a comment; RawText is what lies between "<!--" and
	// "-->".
	CommentToken
	// ProcInstToken is a processing instruction, the XML declaration
	// included; Name is its target and RawText its instruction.
	ProcInstToken
)

// RawAttr is one attribute of a StartToken; Value holds the raw bytes
// between the quotes, entities still encoded (decode with AttrValue).
type RawAttr struct {
	Name  []byte
	Value []byte
}

var scannerPool = sync.Pool{New: func() any { return &Scanner{} }}

// AcquireScanner returns a pooled scanner positioned at the start of data.
func AcquireScanner(data []byte) *Scanner {
	s := scannerPool.Get().(*Scanner)
	s.Reset(data)
	return s
}

// ReleaseScanner resets and returns the scanner to the pool.
func ReleaseScanner(s *Scanner) {
	if s == nil {
		return
	}
	s.Reset(nil)
	scannerPool.Put(s)
}

// Reset repositions the scanner over a new document, dropping all state.
func (s *Scanner) Reset(data []byte) {
	s.data = data
	s.pos = 0
	s.name = nil
	s.text = nil
	s.cdata = false
	s.attrs = s.attrs[:0]
	s.openElems = s.openElems[:0]
	s.roots = 0
	s.doctype = false
	s.pendingEnd = false
	// Skip a UTF-8 byte-order mark if present.
	if hasPrefixAt(s.data, 0, bom) {
		s.pos = len(bom)
	}
}

// bom is the UTF-8 byte-order mark.
const bom = "\uFEFF"

// Name returns the current element name (raw, including any prefix) or
// processing-instruction target. The slice aliases the input buffer and
// is invalidated by Next.
func (s *Scanner) Name() []byte { return s.name }

// LocalName returns the element name with any namespace prefix stripped.
func (s *Scanner) LocalName() []byte { return localName(s.name) }

// localName is a qualified name's local part: what follows its one colon,
// unless the prefix or the local part would be empty, when it is the whole
// name (as encoding/xml reads it).
func localName(name []byte) []byte {
	for i, c := range name {
		if c == ':' && i > 0 && i < len(name)-1 {
			return name[i+1:]
		}
	}
	return name
}

// Attrs returns the current start tag's attributes. The slices alias the
// input buffer and are invalidated by Next.
func (s *Scanner) Attrs() []RawAttr { return s.attrs }

// Attr returns the raw value of the named attribute (exact match against
// the raw attribute name) and whether it is present.
func (s *Scanner) Attr(name string) ([]byte, bool) {
	for _, a := range s.attrs {
		if string(a.Name) == name { // no alloc: compiler-optimized compare
			return a.Value, true
		}
	}
	return nil, false
}

// Depth returns the number of currently open elements.
func (s *Scanner) Depth() int { return len(s.openElems) }

// errf formats a positioned parse error.
func (s *Scanner) errf(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", ErrParse, s.pos, fmt.Sprintf(format, args...))
}

// Next advances to the next token. It returns NoToken with a nil error at
// a well-formed end of input.
func (s *Scanner) Next() (TokenKind, error) {
	s.attrs = s.attrs[:0]
	if s.pendingEnd {
		s.pendingEnd = false
		s.name = s.openElems[len(s.openElems)-1]
		s.openElems = s.openElems[:len(s.openElems)-1]
		return EndToken, nil
	}
	for s.pos < len(s.data) {
		if s.data[s.pos] != '<' {
			return s.scanText()
		}
		// Some kind of markup.
		if s.pos+1 >= len(s.data) {
			return NoToken, s.errf("truncated markup")
		}
		switch s.data[s.pos+1] {
		case '?':
			return s.scanProcInst()
		case '!':
			switch {
			case hasPrefixAt(s.data, s.pos, "<!--"):
				return s.scanComment()
			case hasPrefixAt(s.data, s.pos, "<![CDATA["):
				return s.scanCDATA()
			case hasPrefixAt(s.data, s.pos, "<!DOCTYPE"):
				if err := s.skipDoctype(); err != nil {
					return NoToken, err
				}
			default:
				return NoToken, s.errf("unsupported markup declaration")
			}
		case '/':
			return s.scanEndTag()
		default:
			return s.scanStartTag()
		}
	}
	if len(s.openElems) > 0 {
		return NoToken, s.errf("%d unclosed elements", len(s.openElems))
	}
	if s.roots == 0 {
		return NoToken, s.errf("no root element")
	}
	return NoToken, nil
}

func hasPrefixAt(data []byte, pos int, prefix string) bool {
	return len(data)-pos >= len(prefix) && string(data[pos:pos+len(prefix)]) == prefix
}

func indexFrom(data []byte, from int, sub string) int {
	if i := bytes.Index(data[from:], []byte(sub)); i >= 0 {
		return from + i
	}
	return -1
}

// isChar reports whether r is an XML 1.0 Char.
func isChar(r rune) bool {
	return r >= 0x20 && r <= 0xD7FF || r == '\t' || r == '\n' || r == '\r' ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune
}

// char checks the character at s.pos and steps over it.
func (s *Scanner) char(where string) error {
	r, n := utf8.DecodeRune(s.data[s.pos:])
	if r == utf8.RuneError && n == 1 {
		return s.errf("invalid UTF-8 in %s", where)
	}
	if !isChar(r) {
		return s.errf("illegal character %U in %s", r, where)
	}
	s.pos += n
	return nil
}

// checkChars steps over data[s.pos:end], which must be Chars.
func (s *Scanner) checkChars(end int, where string) error {
	for s.pos < end {
		if c := s.data[s.pos]; c >= ' ' && c < utf8.RuneSelf {
			s.pos++
		} else if err := s.char(where); err != nil {
			return err
		}
	}
	return nil
}

// skipDoctype passes over a DOCTYPE declaration, bounding it as
// encoding/xml bounds a directive: quoted strings and comments may hold
// '>', and any other '<' opens a nested declaration that needs its own.
func (s *Scanner) skipDoctype() error {
	if s.roots > 0 || s.doctype {
		return s.errf("DOCTYPE outside the prolog")
	}
	s.doctype = true
	var quote byte
	depth := 0
	for i := s.pos + len("<!DOCTYPE"); i < len(s.data); i++ {
		switch c := s.data[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '"' || c == '\'':
			quote = c
		case c == '>' && depth > 0:
			depth--
		case c == '>':
			if err := s.checkChars(i, "DOCTYPE"); err != nil {
				return err
			}
			s.pos = i + 1
			return nil
		case c == '<' && hasPrefixAt(s.data, i, "<!--"):
			end := indexFrom(s.data, i+len("<!--"), "-->")
			if end < 0 {
				return s.errf("unterminated comment in DOCTYPE")
			}
			i = end + len("--")
		case c == '<':
			depth++
		}
	}
	return s.errf("unterminated DOCTYPE")
}

// scanText captures character data up to the next '<'. Outside the root
// element it may only be whitespace, which is still returned (SOAP
// decoding skips it).
func (s *Scanner) scanText() (TokenKind, error) {
	start := s.pos
	if err := s.scanData('<'); err != nil {
		return NoToken, err
	}
	s.text = s.data[start:s.pos]
	s.cdata = false
	if len(s.openElems) == 0 && !s.IsWhitespace() {
		s.pos = start
		return NoToken, s.errf("character data outside the root element")
	}
	return TextToken, nil
}

// plain marks the bytes that character data holds with no further look:
// ASCII Chars but '<', '&', ']' and the quotes.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	t['\t'], t['\n'], t['\r'] = true, true, true
	t['<'], t['&'], t[']'], t['"'], t['\''] = false, false, false, false, false
	return t
}()

// scanData advances over character data up to stop: '<' for content, the
// closing quote for an attribute value. Every character must be a Char
// and every reference well formed; content may not hold "]]>", nor an
// attribute value '<'.
func (s *Scanner) scanData(stop byte) error {
	for s.pos < len(s.data) {
		i := s.pos
		for i < len(s.data) && plain[s.data[i]] {
			i++
		}
		if s.pos = i; i == len(s.data) {
			break
		}
		switch c := s.data[i]; {
		case c == stop:
			return nil
		case c == '<':
			return s.errf("'<' in attribute value")
		case c == '&':
			r, n := ref(s.data[s.pos:])
			if n == 0 {
				return s.errf("malformed entity or character reference")
			}
			if !isChar(r) {
				return s.errf("character reference to %U", r)
			}
			s.pos += n
		case c == ']' && stop == '<' && hasPrefixAt(s.data, s.pos, "]]>"):
			return s.errf(`"]]>" in content`)
		case c < ' ' || c >= utf8.RuneSelf:
			if err := s.char("character data"); err != nil {
				return err
			}
		default:
			s.pos++
		}
	}
	return nil
}

func (s *Scanner) scanCDATA() (TokenKind, error) {
	if len(s.openElems) == 0 {
		return NoToken, s.errf("CDATA section outside the root element")
	}
	start := s.pos + len("<![CDATA[")
	end := indexFrom(s.data, start, "]]>")
	if end < 0 {
		return NoToken, s.errf("unterminated CDATA section")
	}
	s.cdata = true
	return s.markup(TextToken, start, end, len("]]>"), "CDATA section")
}

// markup ends a token whose text is data[start:end], which must be Chars,
// and steps over its terminator of n bytes.
func (s *Scanner) markup(kind TokenKind, start, end, n int, where string) (TokenKind, error) {
	s.pos = start
	if err := s.checkChars(end, where); err != nil {
		return NoToken, err
	}
	s.text = s.data[start:end]
	s.pos = end + n
	return kind, nil
}

// scanComment reads a comment. It ends at its first "--", which must be
// the start of "-->".
func (s *Scanner) scanComment() (TokenKind, error) {
	start := s.pos + len("<!--")
	end := indexFrom(s.data, start, "--")
	if end < 0 {
		return NoToken, s.errf("unterminated comment")
	}
	if !hasPrefixAt(s.data, end, "-->") {
		s.pos = end
		return NoToken, s.errf(`"--" inside a comment`)
	}
	return s.markup(CommentToken, start, end, len("-->"), "comment")
}

// scanProcInst reads a processing instruction: a target name, optional
// space, and the instruction up to "?>". The XML declaration (target
// "xml") opens the document, after a byte-order mark if any, and may name
// version 1.0 and the UTF-8 encoding and no others.
func (s *Scanner) scanProcInst() (TokenKind, error) {
	first := s.pos == 0 || s.pos == len(bom) && hasPrefixAt(s.data, 0, bom)
	s.pos += len("<?")
	target, err := s.scanName(false)
	if err != nil {
		return NoToken, err
	}
	s.skipSpace()
	start := s.pos
	end := indexFrom(s.data, start, "?>")
	if end < 0 {
		return NoToken, s.errf("unterminated processing instruction")
	}
	inst := s.data[start:end]
	if string(target) == "xml" {
		if !first {
			return NoToken, s.errf("XML declaration not at the start of the document")
		}
		if v := declParam(inst, "version="); len(v) > 0 && string(v) != "1.0" {
			return NoToken, s.errf("unsupported XML version %q", v)
		}
		if e := declParam(inst, "encoding="); len(e) > 0 && !bytes.EqualFold(e, []byte("UTF-8")) {
			return NoToken, s.errf("unsupported encoding %q", e)
		}
	}
	s.name = target
	return s.markup(ProcInstToken, start, end, len("?>"), "processing instruction")
}

// declParam reads a parameter of the XML declaration the way encoding/xml
// does: the value in quotes after the first `param=` (the '=' included in
// param) that a quote follows, or nil.
func declParam(decl []byte, param string) []byte {
	for i := 0; i < len(decl); {
		k := bytes.Index(decl[i:], []byte(param))
		if k < 0 || i+k+len(param) >= len(decl) {
			return nil
		}
		i += k + len(param) + 1
		if q := decl[i-1]; q == '"' || q == '\'' {
			if end := bytes.IndexByte(decl[i:], q); end >= 0 {
				return decl[i : i+end]
			}
			return nil
		}
	}
	return nil
}

// nameByte marks the ASCII bytes a name may hold: 1, or 2 for the colon.
var nameByte = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = 1, 1
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = 1
	}
	t['_'], t['-'], t['.'], t[':'] = 1, 1, 1, 2
	return t
}()

// isNameRune reports the non-ASCII NameStartChar (first) or NameChar
// runes of XML 1.0, fifth edition.
func isNameRune(r rune, first bool) bool {
	switch {
	case r >= 0xC0 && r <= 0xD6, r >= 0xD8 && r <= 0xF6, r >= 0xF8 && r <= 0x2FF,
		r >= 0x370 && r <= 0x37D, r >= 0x37F && r <= 0x1FFF, r >= 0x200C && r <= 0x200D,
		r >= 0x2070 && r <= 0x218F, r >= 0x2C00 && r <= 0x2FEF, r >= 0x3001 && r <= 0xD7FF,
		r >= 0xF900 && r <= 0xFDCF, r >= 0xFDF0 && r <= 0xFFFD, r >= 0x10000 && r <= 0xEFFFF:
		return true
	case first:
		return false
	}
	return r == 0xB7 || r >= 0x300 && r <= 0x36F || r >= 0x203F && r <= 0x2040
}

// scanName reads an XML name; an element or attribute name (qname) may
// hold one colon at most, as Namespaces in XML require. Like encoding/xml,
// it takes every non-ASCII byte as part of the name, so a rune outside the
// name ranges is an error, not the name's end.
func (s *Scanner) scanName(qname bool) ([]byte, error) {
	start, i, colons := s.pos, s.pos, 0
	for i < len(s.data) {
		c := s.data[i]
		if k := nameByte[c]; k != 0 {
			colons += int(k >> 1)
			i++
			continue
		}
		if c < utf8.RuneSelf {
			break
		}
		r, n := utf8.DecodeRune(s.data[i:])
		if r == utf8.RuneError && n == 1 || !isNameRune(r, i == start) {
			s.pos = i
			return nil, s.errf("invalid name character %U", r)
		}
		i += n
	}
	s.pos = i
	if i == start {
		return nil, s.errf("expected name")
	}
	if c := s.data[start]; c >= '0' && c <= '9' || c == '-' || c == '.' {
		return nil, s.errf("invalid name start %q", c)
	}
	if qname && colons > 1 {
		return nil, s.errf("name %s has more than one colon", s.data[start:i])
	}
	return s.data[start:i], nil
}

// skipSpace steps over whitespace and reports whether there was any.
func (s *Scanner) skipSpace() bool {
	start := s.pos
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
	return s.pos > start
}

// isSpace reports whether c is XML whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

func (s *Scanner) scanStartTag() (TokenKind, error) {
	if s.roots > 0 && len(s.openElems) == 0 {
		return NoToken, s.errf("multiple root elements")
	}
	s.pos++ // consume '<'
	name, err := s.scanName(true)
	if err != nil {
		return NoToken, err
	}
	for {
		spaced := s.skipSpace()
		if s.pos >= len(s.data) {
			return NoToken, s.errf("unterminated start tag <%s", name)
		}
		switch s.data[s.pos] {
		case '>':
			s.pos++
		case '/':
			if s.pos+1 >= len(s.data) || s.data[s.pos+1] != '>' {
				return NoToken, s.errf("malformed self-closing tag <%s", name)
			}
			s.pos += 2
			s.pendingEnd = true
		default:
			if !spaced {
				return NoToken, s.errf("no whitespace before an attribute of <%s", name)
			}
			if err := s.scanAttr(); err != nil {
				return NoToken, err
			}
			continue
		}
		s.name = name
		if len(s.openElems) == 0 {
			s.roots++
		}
		s.openElems = append(s.openElems, name)
		return StartToken, nil
	}
}

func (s *Scanner) scanAttr() error {
	name, err := s.scanName(true)
	if err != nil {
		return err
	}
	// A start tag may not repeat an attribute name (XML 1.0 §3.1).
	if s.seenAttr(name) {
		return s.errf("duplicate attribute %s", name)
	}
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != '=' {
		return s.errf("attribute %s missing '='", name)
	}
	s.pos++
	s.skipSpace()
	if s.pos >= len(s.data) || (s.data[s.pos] != '"' && s.data[s.pos] != '\'') {
		return s.errf("attribute %s missing quoted value", name)
	}
	quote := s.data[s.pos]
	s.pos++
	start := s.pos
	if err := s.scanData(quote); err != nil {
		return err
	}
	if s.pos >= len(s.data) {
		return s.errf("unterminated attribute value of %s", name)
	}
	s.attrs = append(s.attrs, RawAttr{Name: name, Value: s.data[start:s.pos]})
	if n := len(s.attrs); n > linearAttrs {
		slot, _ := s.attrSlot(name)
		s.attrIndex[slot] = int32(n)
	}
	s.pos++ // closing quote
	return nil
}

// linearAttrs is how many attributes a start tag may have before
// seenAttr stops comparing a name against each and looks it up in
// attrIndex, so that a tag of thousands of attributes is checked in
// linear time.
const linearAttrs = 8

// seenAttr reports whether the current start tag already has an
// attribute with this raw name.
func (s *Scanner) seenAttr(name []byte) bool {
	n := len(s.attrs)
	if n < linearAttrs {
		for _, a := range s.attrs {
			if bytes.Equal(a.Name, name) {
				return true
			}
		}
		return false
	}
	if n == linearAttrs || 4*n > len(s.attrIndex) {
		// Rebuild at a load of 1/8, reusing the last table's storage.
		s.attrIndex = append(s.attrIndex[:0], make([]int32, 8*n)...)
		for i, a := range s.attrs {
			slot, _ := s.attrSlot(a.Name)
			s.attrIndex[slot] = int32(i + 1)
		}
	}
	_, found := s.attrSlot(name)
	return found
}

// attrSlot finds name in attrIndex, an open-addressed table of indexes
// into attrs plus one (0 is empty) hashed by FNV-1a: the slot that holds
// it, or the empty slot where it goes.
func (s *Scanner) attrSlot(name []byte) (slot int, found bool) {
	h := uint32(2166136261)
	for _, c := range name {
		h = (h ^ uint32(c)) * 16777619
	}
	for slot = int(h % uint32(len(s.attrIndex))); s.attrIndex[slot] != 0; slot = (slot + 1) % len(s.attrIndex) {
		if bytes.Equal(s.attrs[s.attrIndex[slot]-1].Name, name) {
			return slot, true
		}
	}
	return slot, false
}

func (s *Scanner) scanEndTag() (TokenKind, error) {
	s.pos += 2 // consume "</"
	name, err := s.scanName(true)
	if err != nil {
		return NoToken, err
	}
	s.skipSpace()
	if s.pos >= len(s.data) || s.data[s.pos] != '>' {
		return NoToken, s.errf("malformed end tag </%s", name)
	}
	s.pos++
	if len(s.openElems) == 0 {
		return NoToken, s.errf("unexpected </%s>", name)
	}
	open := s.openElems[len(s.openElems)-1]
	if string(open) != string(name) {
		return NoToken, s.errf("mismatched end tag </%s>, open <%s>", name, open)
	}
	s.openElems = s.openElems[:len(s.openElems)-1]
	s.name = name
	return EndToken, nil
}

// RawText returns the current Text token's raw bytes (entities still
// encoded), a comment's text or a processing instruction's instruction.
// The slice aliases the input buffer.
func (s *Scanner) RawText() []byte { return s.text }

// AppendTo appends the current Text token's decoded content to dst:
// entity references are resolved (except inside CDATA sections, which
// carry no markup) and line endings are normalized to "\n".
func (s *Scanner) AppendTo(dst []byte) ([]byte, error) {
	return appendDecoded(dst, s.text, s.cdata, false)
}

// IsWhitespace reports whether the current Text token is entirely XML
// whitespace (so a structural decoder can skip it without unescaping).
func (s *Scanner) IsWhitespace() bool {
	for _, c := range s.text {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

// AttrValue decodes an attribute's raw value: references are resolved
// and, as XML 1.0 normalizes attribute values, every literal tab, newline
// and line end ("\r\n" or "\r") becomes one space.
func AttrValue(raw []byte) (string, error) {
	if bytes.IndexAny(raw, "&\t\n\r") < 0 {
		return string(raw), nil
	}
	out, err := appendDecoded(nil, raw, false, true)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// appendDecoded appends raw to dst with references resolved (unless
// literal, as in CDATA) and "\r\n" and "\r" folded to "\n", or, in an
// attribute value (attr), with tabs and line ends folded to spaces.
func appendDecoded(dst, raw []byte, literal, attr bool) ([]byte, error) {
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '&' && !literal:
			r, n := ref(raw[i:])
			if n == 0 {
				return dst, fmt.Errorf("%w: malformed entity or character reference", ErrParse)
			}
			dst = utf8.AppendRune(dst, r)
			i += n - 1
			continue
		case c == '\r':
			if i+1 < len(raw) && raw[i+1] == '\n' {
				i++
			}
			c = '\n'
		}
		if attr && (c == '\t' || c == '\n') {
			c = ' '
		}
		dst = append(dst, c)
	}
	return dst, nil
}

// predefined are the entities XML defines without a DTD.
var predefined = [...]struct {
	ref string
	r   rune
}{{"&amp;", '&'}, {"&lt;", '<'}, {"&gt;", '>'}, {"&quot;", '"'}, {"&apos;", '\''}}

// ref reads the reference at the start of b and returns the character it
// stands for and its length, or n == 0 if b does not start with a
// predefined entity or a well-formed character reference ("&#" decimal
// ";" or "&#x" hexadecimal ";", at most utf8.MaxRune).
func ref(b []byte) (r rune, n int) {
	for _, p := range predefined {
		if hasPrefixAt(b, 0, p.ref) {
			return p.r, len(p.ref)
		}
	}
	if len(b) < 3 || b[1] != '#' {
		return 0, 0
	}
	i, base := 2, rune(10)
	if b[2] == 'x' {
		i, base = 3, 16
	}
	start := i
	for ; i < len(b) && b[i] != ';'; i++ {
		d := rune(16)
		switch c := b[i]; {
		case c >= '0' && c <= '9':
			d = rune(c - '0')
		case c >= 'a' && c <= 'f':
			d = rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = rune(c-'A') + 10
		}
		if d >= base {
			return 0, 0
		}
		if r = r*base + d; r > utf8.MaxRune {
			return 0, 0
		}
	}
	if i == start || i == len(b) {
		return 0, 0
	}
	return r, i + 1
}

// EscapeElementText appends s to dst escaped for element content: '&',
// '<' and '>' as entities and '\r' as "&#xD;" (which a reader would
// otherwise normalize to '\n'). It writes straight into dst, the soap
// encoder's single-pass fast path.
func EscapeElementText(dst []byte, s string) []byte { return escape(dst, s, false) }

// EscapeAttrValue appends s to dst escaped for a double-quoted attribute
// value: '&', '<', '"' and the characters attribute-value normalization
// would fold ('\t', '\n', '\r').
func EscapeAttrValue(dst []byte, s string) []byte { return escape(dst, s, true) }

// escape writes s for content or an attribute value. Both kinds write an
// invalid UTF-8 byte or a rune that is not an XML Char as U+FFFD, so what
// they write always reads back.
func escape(dst []byte, s string, attr bool) []byte {
	last := 0
	for i := 0; i < len(s); {
		c, n := s[i], 1
		var esc string
		switch {
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>' && !attr:
			esc = "&gt;"
		case c == '"' && attr:
			esc = "&quot;"
		case c == '\r':
			esc = "&#xD;"
		case c == '\n' && attr:
			esc = "&#xA;"
		case c == '\t' && attr:
			esc = "&#x9;"
		case c >= ' ' && c < utf8.RuneSelf, c == '\n', c == '\t':
			i++
			continue
		default:
			var r rune
			if r, n = utf8.DecodeRuneInString(s[i:]); isChar(r) && n > 1 {
				i += n
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += n
		last = i
	}
	return append(dst, s[last:]...)
}
