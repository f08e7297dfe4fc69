package xmlkit_test

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"soc/internal/soap"
	"soc/internal/xmlkit"
)

// FuzzScanner holds the Scanner, read through SAX Parse, to encoding/xml
// as Parse read XML before it: encoding/xml's tokens, plus exactly one
// root element. Both must accept or reject every input alike, and an
// accepted input must give the same events: kind, local name, attributes
// and decoded text. Where encoding/xml departs from XML 1.0, the list
// above departure names the exception made for it. Every input also goes
// through the escapers: what they write, the Scanner must accept and
// decode back to the input with each invalid byte or non-Char rune
// replaced by U+FFFD.
func FuzzScanner(f *testing.F) {
	contracts, err := filepath.Glob("../../contracts/*.wsdl")
	if err != nil || len(contracts) == 0 {
		f.Fatalf("no golden contracts: %v", err)
	}
	for _, path := range contracts {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, in := range splitInputs {
		f.Add([]byte(in.doc))
	}
	f.Add([]byte(okInput))
	for _, env := range envelopes(f) {
		f.Add(env)
	}
	// One input for each departure of encoding/xml's below.
	for _, doc := range []string{
		"<a><!--\x01--></a>", "<?pi \xff?><a/>", "<!DOCTYPE a [\x01]><a/>",
		"<a>&#xD800;</a>",
		"<a\u2070/>",
		"<a/><!DOCTYPE a>", "<!ELEMENT a ANY><a/>",
		"x<a/>", "<a/>&amp;", "<![CDATA[ ]]><a/>",
		`<a b="1"c='2'/>`, `<a b='"'/>`,
		`<a p:b="1" c = '=' p:b="2" xmlns:p="u"/>`,
		`<p:a/>`, `<a p:b="1"/>`, `<a><b xmlns:p="u"/><p:c/></a>`,
		`<a p:b="1" q:b="2" xmlns:p="u" xmlns:q="u"/>`,
		`<a xmlns:p=""/>`, `<a xmlns:xml="u"/>`, `<a xmlns:p="http://www.w3.org/2000/xmlns/"/>`,
		`<a><?xml version="1.0"?></a>`, ` <?xml version="1.0"?><a/>`, "\uFEFF<?xml version='1.0'?><a/>",
		"<a x='1\t2\r\n3\n'/>",
		"\uFEFF<a/>",
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstEncodingXML(t, data)
		checkEscapers(t, string(data))
	})
}

// envelopes are what the SOAP codec writes: a request with header
// entries and parameters that need escaping, and a fault.
func envelopes(f *testing.F) [][]byte {
	req, err := soap.Encode(soap.Message{
		Operation:  "Echo",
		Namespace:  "http://soc.example/echo?a=1&b=\"2\"",
		Header:     map[string]string{"SocTrace": "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"},
		Params:     map[string]string{"text": "the quick <brown> fox & friends\r\n", "n": "42"},
		ParamOrder: []string{"text", "n"},
	})
	if err != nil {
		f.Fatal(err)
	}
	fault, err := soap.EncodeFault(&soap.Fault{Code: "Client", String: "bad <input>", Detail: "]]> 'x'"})
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{req, fault,
		[]byte("\uFEFF<!DOCTYPE a [<!ENTITY x \"<>\"> <!-- > -->]><?pi x?><a x='1'\ny=\"&#x9;&lt;\"><![CDATA[<&>]]></a>")}
}

func checkAgainstEncodingXML(t *testing.T, data []byte) {
	want, departs, werr := readWithEncodingXML(data)
	got, gerr := readWithParse(data)
	if serr := scanAll(data); (serr == nil) != (gerr == nil) {
		t.Fatalf("Scanner says %v, Parse says %v", serr, gerr)
	}
	switch {
	case werr == nil && gerr == nil:
		if departs != "" {
			t.Fatalf("Parse accepts %s: %q", departs, data)
		}
		if !equal(got, want) {
			t.Fatalf("events differ for %q\nParse:        %q\nencoding/xml: %q", data, got, want)
		}
	case werr == nil && departs == "":
		if !departure(gerr) {
			t.Fatalf("Parse rejects what encoding/xml accepts, %q: %v", data, gerr)
		}
	case werr != nil && gerr == nil:
		if !nameDeparture(werr) {
			t.Fatalf("Parse accepts what encoding/xml rejects, %q: %v", data, werr)
		}
	}
}

// Departures of encoding/xml from XML 1.0, where the Scanner keeps to
// XML 1.0:
//   - it checks no characters in comments, processing instructions and
//     DOCTYPE declarations, which XML 1.0's Char production covers;
//   - it reads a character reference to a surrogate as U+FFFD, where XML
//     1.0 requires a Char;
//   - it checks names against the tables of XML 1.0's fourth edition,
//     narrower than the fifth's, which the Scanner follows;
//   - it takes any "<!…>" declaration anywhere, where XML 1.0 allows one
//     DOCTYPE, before the root;
//   - it takes character data outside the root element, where XML 1.0
//     allows only whitespace and no CDATA section;
//   - it takes attributes with no whitespace between them;
//   - it takes a start tag that repeats an attribute name;
//   - it takes a prefix no declaration in scope binds, two attributes
//     whose prefixes bind one namespace name, an empty prefix
//     declaration, and a declaration of xmlns, of xml to another name or
//     of another prefix to xml's or xmlns's name, which Namespaces in XML
//     forbid;
//   - it takes an XML declaration anywhere, where XML 1.0 allows one, at
//     the start of the document;
//   - it does not normalize attribute values: equal folds the tabs and
//     line ends that XML 1.0 turns into spaces;
//   - it reads a byte-order mark as character data (readWithEncodingXML
//     drops it).
//
// readWithEncodingXML reports the markup departures (declarations,
// character data outside the root, attribute spacing and repeats,
// namespace prefixes, and the XML declaration's place).
var (
	markupChar    = regexp.MustCompile(`(illegal character U\+[0-9A-F]+|invalid UTF-8) in (comment|processing instruction|DOCTYPE)$`)
	surrogateRef  = regexp.MustCompile(`character reference to U\+D[89A-F][0-9A-F]{2}$`)
	nonASCIIName  = regexp.MustCompile(`invalid XML name: .*[^\x00-\x7F]`)
	attrLineBreak = strings.NewReplacer("\t", " ", "\n", " ", "\r", " ")
)

func departure(err error) bool {
	return markupChar.MatchString(err.Error()) || surrogateRef.MatchString(err.Error())
}

func nameDeparture(err error) bool { return nonASCIIName.MatchString(err.Error()) }

// readWithEncodingXML reads data as Parse did on encoding/xml. departs
// names an XML 1.0 violation encoding/xml accepted.
func readWithEncodingXML(data []byte) (events []string, departs string, err error) {
	d := xml.NewDecoder(bytes.NewReader(data))
	depth, roots, doctypes := 0, 0, 0
	var scopes []map[string]string
	for {
		off := d.InputOffset()
		tok, err := d.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, "", err
		}
		raw := data[off:d.InputOffset()]
		switch t := tok.(type) {
		case xml.StartElement:
			if unspacedAttr(raw) {
				departs = fmt.Sprintf("an attribute with no whitespace before it in %s", raw)
			}
			if repeatedAttr(raw) {
				departs = fmt.Sprintf("a repeated attribute name in %s", raw)
			}
			if fault := namespaceFault(raw, &scopes); fault != "" {
				departs = fmt.Sprintf("%s in %s", fault, raw)
			}
			if depth == 0 {
				if roots++; roots > 1 {
					return nil, "", fmt.Errorf("multiple root elements")
				}
			}
			depth++
			e := "<" + t.Name.Local
			for _, a := range t.Attr {
				e += " " + a.Name.Local + "=" + a.Value
			}
			events = append(events, e)
		case xml.EndElement:
			depth--
			scopes = scopes[:len(scopes)-1]
			events = append(events, "</"+t.Name.Local)
		case xml.CharData:
			if off == 0 {
				t = bytes.TrimPrefix(t, []byte("\uFEFF"))
			}
			if depth == 0 && (bytes.HasPrefix(raw, []byte("<![CDATA[")) || len(bytes.Trim(t, " \t\r\n")) > 0) {
				departs = fmt.Sprintf("the character data %q outside the root element", raw)
			}
			events = append(events, "#"+string(t))
		case xml.Comment:
			events = append(events, "!"+string(t))
		case xml.ProcInst:
			if t.Target == "xml" && off != 0 && !(off == 3 && bytes.HasPrefix(data, []byte("\uFEFF"))) {
				departs = fmt.Sprintf("an XML declaration at offset %d", off)
			}
			events = append(events, "?"+t.Target+" "+string(t.Inst))
		case xml.Directive:
			if !bytes.HasPrefix(t, []byte("DOCTYPE")) || roots > 0 || doctypes > 0 {
				departs = fmt.Sprintf("the declaration <!%s>", t)
			}
			doctypes++
		}
	}
	if roots == 0 {
		return nil, "", fmt.Errorf("no root element")
	}
	if events[0] == "#" { // a byte-order mark alone
		events = events[1:]
	}
	return events, departs, nil
}

// repeatedAttr reports whether a raw start tag that encoding/xml accepted
// names an attribute twice, comparing raw names as the Scanner does.
func repeatedAttr(tag []byte) bool {
	_, attrs := rawStartTag(tag)
	seen := map[string]bool{}
	for _, a := range attrs {
		if seen[a.name] {
			return true
		}
		seen[a.name] = true
	}
	return false
}

// namespaceFault names what breaks Namespaces in XML in a raw start tag
// that encoding/xml accepted, "" if nothing: a declaration that is empty
// or binds a reserved prefix or namespace name, a prefix no declaration
// in scope binds, or two attributes with one local name whose prefixes
// bind one namespace name (compared as written, as the Scanner does). It
// pushes the tag's scope onto scopes; the end tag pops it.
func namespaceFault(tag []byte, scopes *[]map[string]string) string {
	name, attrs := rawStartTag(tag)
	scope := map[string]string{}
	if n := len(*scopes); n > 0 {
		maps.Copy(scope, (*scopes)[n-1])
	}
	for _, a := range attrs {
		if p, local := splitQName(a.name); p == "xmlns" {
			scope[local] = a.value
		}
	}
	const xmlName, xmlnsName = "http://www.w3.org/XML/1998/namespace", "http://www.w3.org/2000/xmlns/"
	scope["xml"] = xmlName
	*scopes = append(*scopes, scope)
	for _, a := range attrs {
		p, local := splitQName(a.name)
		if p == "xmlns" && (a.value == "" || local == "xmlns" || (local == "xml") != (a.value == xmlName) || a.value == xmlnsName) {
			return "a reserved or empty namespace declaration"
		}
	}
	if p, _ := splitQName(name); p != "" {
		if _, ok := scope[p]; !ok {
			return "an undeclared prefix"
		}
	}
	expanded := map[[2]string]bool{}
	for _, a := range attrs {
		p, local := splitQName(a.name)
		if p == "" || p == "xmlns" {
			continue
		}
		uri, ok := scope[p]
		if !ok {
			return "an undeclared prefix"
		}
		if expanded[[2]string{uri, local}] {
			return "two attributes with one expanded name"
		}
		expanded[[2]string{uri, local}] = true
	}
	return ""
}

// splitQName splits a raw name at its colon, as the Scanner does: a colon
// first or last leaves the name unprefixed.
func splitQName(name string) (prefix, local string) {
	if i := strings.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[:i], name[i+1:]
	}
	return "", name
}

type rawAttr struct{ name, value string }

// rawStartTag reads the raw element name and attributes of a start tag
// that encoding/xml accepted.
func rawStartTag(tag []byte) (name string, attrs []rawAttr) {
	const space = " \t\r\n"
	i := bytes.IndexAny(tag, space+"/>")
	name = string(tag[1:i])
	for {
		i = len(tag) - len(bytes.TrimLeft(tag[i:], space))
		eq := bytes.IndexByte(tag[i:], '=')
		if eq < 0 { // only the tag's end is left
			return name, attrs
		}
		q := i + eq + 1 + bytes.IndexAny(tag[i+eq+1:], `"'`)
		end := q + 1 + bytes.IndexByte(tag[q+1:], tag[q]) // the closing quote
		attrs = append(attrs, rawAttr{string(bytes.TrimRight(tag[i:i+eq], space)), string(tag[q+1 : end])})
		i = end + 1
	}
}

// unspacedAttr reports whether a raw start tag that encoding/xml accepted
// has an attribute no whitespace precedes: an attribute value's closing
// quote followed by anything but whitespace or the tag's end.
func unspacedAttr(tag []byte) bool {
	var quote byte
	for i, c := range tag {
		switch {
		case quote != 0 && c == quote:
			quote = 0
			if next := tag[i+1]; !strings.ContainsRune(" \t\r\n/>", rune(next)) {
				return true
			}
		case quote == 0 && (c == '"' || c == '\''):
			quote = c
		}
	}
	return false
}

type recorder struct{ events []string }

func (r *recorder) StartDocument() error { return nil }
func (r *recorder) EndDocument() error   { return nil }
func (r *recorder) StartElement(name string, attrs []xmlkit.Attr) error {
	e := "<" + name
	for _, a := range attrs {
		e += " " + a.Name + "=" + a.Value
	}
	r.events = append(r.events, e)
	return nil
}
func (r *recorder) EndElement(name string) error {
	r.events = append(r.events, "</"+name)
	return nil
}
func (r *recorder) Characters(text string) error {
	r.events = append(r.events, "#"+text)
	return nil
}
func (r *recorder) Comment(text string) error {
	r.events = append(r.events, "!"+text)
	return nil
}
func (r *recorder) ProcessingInstruction(target, inst string) error {
	r.events = append(r.events, "?"+target+" "+inst)
	return nil
}

func readWithParse(data []byte) ([]string, error) {
	var r recorder
	err := xmlkit.Parse(bytes.NewReader(data), &r)
	return r.events, err
}

func scanAll(data []byte) error {
	s := xmlkit.AcquireScanner(data)
	defer xmlkit.ReleaseScanner(s)
	for {
		if kind, err := s.Next(); err != nil || kind == xmlkit.NoToken {
			return err
		}
	}
}

// equal compares event streams, start tags with their attribute values
// normalized.
func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if strings.HasPrefix(x, "<") {
			x, y = attrLineBreak.Replace(x), attrLineBreak.Replace(y)
		}
		if x != y {
			return false
		}
	}
	return true
}

// checkEscapers writes s as an attribute value and as content, and reads
// both back.
func checkEscapers(t *testing.T, s string) {
	doc := `<a v="` + string(xmlkit.EscapeAttrValue(nil, s)) + `">` + string(xmlkit.EscapeElementText(nil, s)) + `</a>`
	sc := xmlkit.AcquireScanner([]byte(doc))
	defer xmlkit.ReleaseScanner(sc)
	var attr string
	var text []byte
	for {
		kind, err := sc.Next()
		if err != nil {
			t.Fatalf("the escapers wrote %q, which the Scanner rejects: %v", doc, err)
		}
		if kind == xmlkit.NoToken {
			break
		}
		switch kind {
		case xmlkit.StartToken:
			raw, _ := sc.Attr("v")
			if attr, err = xmlkit.AttrValue(raw); err != nil {
				t.Fatal(err)
			}
		case xmlkit.TextToken:
			if text, err = sc.AppendTo(text); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := replaceNonChars(s)
	if attr != want {
		t.Fatalf("attribute value %q reads back as %q, want %q", s, attr, want)
	}
	if string(text) != want {
		t.Fatalf("content %q reads back as %q, want %q", s, text, want)
	}
}

// replaceNonChars replaces each invalid byte and each rune outside XML
// 1.0's Char production with U+FFFD.
func replaceNonChars(s string) string {
	var b strings.Builder
	for _, r := range s { // an invalid byte ranges as U+FFFD
		if r == '\t' || r == '\n' || r == '\r' || r >= 0x20 && r <= 0xD7FF ||
			r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune {
			b.WriteRune(r)
		} else {
			b.WriteRune(utf8.RuneError)
		}
	}
	return b.String()
}
