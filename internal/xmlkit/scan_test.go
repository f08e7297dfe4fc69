package xmlkit_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"soc/internal/soap"
	"soc/internal/xmlkit"
)

// collectTokens drains the scanner into a compact trace for comparison.
func collectTokens(t *testing.T, doc string) ([]string, error) {
	t.Helper()
	s := xmlkit.AcquireScanner([]byte(doc))
	defer xmlkit.ReleaseScanner(s)
	var out []string
	for {
		kind, err := s.Next()
		if err != nil {
			return out, err
		}
		switch kind {
		case xmlkit.NoToken:
			return out, nil
		case xmlkit.StartToken:
			entry := "<" + string(s.Name())
			for _, a := range s.Attrs() {
				v, err := xmlkit.AttrValue(a.Value)
				if err != nil {
					return out, err
				}
				entry += " " + string(a.Name) + "=" + v
			}
			out = append(out, entry)
		case xmlkit.EndToken:
			out = append(out, "</"+string(s.Name()))
		case xmlkit.TextToken:
			if s.IsWhitespace() {
				continue
			}
			txt, err := s.AppendTo(nil)
			if err != nil {
				return out, err
			}
			out = append(out, "#"+string(txt))
		}
	}
}

func TestScannerBasic(t *testing.T) {
	doc := `<?xml version="1.0"?><a x="1" y="a&amp;b"><!-- c --><b>hi &lt;there&gt;</b><c/></a>`
	got, err := collectTokens(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<a x=1 y=a&b", "<b", "#hi <there>", "</b", "<c", "</c", "</a"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v, want %v", got, want)
	}
}

func TestScannerCDATAAndCharRefs(t *testing.T) {
	got, err := collectTokens(t, `<a><![CDATA[x < y & z]]><b>&#65;&#x42;</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<a", "#x < y & z", "<b", "#AB", "</b", "</a"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v, want %v", got, want)
	}
}

func TestScannerNewlineNormalization(t *testing.T) {
	got, err := collectTokens(t, "<a>x\r\ny\rz</a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != "#x\ny\nz" {
		t.Errorf("tokens = %q", got)
	}
}

func TestScannerDoctypeSkipped(t *testing.T) {
	got, err := collectTokens(t, `<!DOCTYPE note [<!ELEMENT note (#PCDATA)>]><note>v</note>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "<note" {
		t.Errorf("tokens = %v", got)
	}
}

func TestScannerMalformed(t *testing.T) {
	cases := map[string]string{
		"no root":             `not xml`,
		"unclosed":            `<a><b></b>`,
		"mismatched":          `<a></b>`,
		"multiple roots":      `<a/><b/>`,
		"stray end":           `</a>`,
		"bad entity":          `<a>&bogus;</a>`,
		"unterminated ent":    `<a>&amp</a>`,
		"unterminated attr":   `<a x="1></a>`,
		"attr missing value":  `<a x></a>`,
		"lt in attr":          `<a x="<"></a>`,
		"unterminated cdata":  `<a><![CDATA[x</a>`,
		"unterminated pi":     `<?xml <a/>`,
		"truncated tag":       `<a`,
		"bad name start":      `<1tag/>`,
		"empty document":      ``,
		"uppercase X ref":     `<a>&#X41;</a>`,
		"surrogate ref":       `<a>&#xD800;</a>`,
		"ref out of range":    `<a>&#x110000;</a>`,
		"control char":        "<a>\x01</a>",
		"non-Char in attr":    "<a x='\uFFFE'/>",
		"non-Char in cdata":   "<a><![CDATA[\x00]]></a>",
		"non-Char comment":    "<a><!--\x1b--></a>",
		"comment ends early":  `<a><!--></a>`,
		"comment ends ---":    `<a><!-- x ---></a>`,
		"name char":           "<a\u00d7/>",
		"colon name":          `<a x:y:z="1"/>`,
		"xml version 1.1":     `<?xml version="1.1"?><a/>`,
		"pi without target":   `<? x?><a/>`,
		"doctype in root":     `<a><!DOCTYPE a></a>`,
		"two doctypes":        `<!DOCTYPE a><!DOCTYPE a><a/>`,
		"element decl":        `<!ELEMENT a ANY><a/>`,
		"text before root":    `x<a/>`,
		"text after root":     `<a/>&amp;`,
		"cdata outside root":  `<![CDATA[ ]]><a/>`,
		"unspaced attrs":      `<a b="1"c="2"/>`,
		"decl inside root":    `<a><?xml version="1.0"?></a>`,
		"decl after space":    ` <?xml version="1.0"?><a/>`,
		"second decl":         `<?xml version="1.0"?><?xml version="1.0"?><a/>`,
		"duplicate attr":      `<a b="1" b="2"/>`,
		"duplicate qualified": `<a p:b="1" p:b="2" xmlns:p="u"/>`,
	}
	for name, doc := range cases {
		if _, err := collectTokens(t, doc); err == nil {
			t.Errorf("%s: scan(%q) succeeded", name, doc)
		}
	}
}

// TestScannerDuplicateAttrInLongTag: past the first few attributes the
// duplicate check indexes the names, and still finds a repeat of any of
// them, in tags of every size one scanner meets in turn.
func TestScannerDuplicateAttrInLongTag(t *testing.T) {
	tag := func(n int, dup string) string {
		var b strings.Builder
		b.WriteString("<a")
		for i := range n {
			fmt.Fprintf(&b, " n%d='%d'", i, i)
		}
		if dup != "" {
			b.WriteString(" " + dup + "='x'")
		}
		return b.String() + "/>"
	}
	for _, n := range []int{7, 8, 9, 33, 300, 9} {
		if got, err := collectTokens(t, tag(n, "")); err != nil || len(got) != 2 {
			t.Errorf("%d distinct attributes: %v, %v", n, got, err)
		}
		for _, dup := range []string{"n0", fmt.Sprintf("n%d", n/2), fmt.Sprintf("n%d", n-1)} {
			if _, err := collectTokens(t, tag(n, dup)); err == nil {
				t.Errorf("%d attributes and a second %s accepted", n, dup)
			}
		}
	}
}

// TestScannerPrologAndSpacing: what may lie outside the root, a
// declaration after a byte-order mark and whitespace between attributes.
func TestScannerPrologAndSpacing(t *testing.T) {
	got, err := collectTokens(t, "\uFEFF<?xml version='1.0'?>\n<!-- c -->\n<a b='1'\tc=\"2\"\n/>\n")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "|") != "<a b=1 c=2|</a" {
		t.Errorf("tokens = %v", got)
	}
}

func TestScannerSelfClosingRoot(t *testing.T) {
	got, err := collectTokens(t, `<only attr='v'/>`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<only attr=v", "</only"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("tokens = %v", got)
	}
}

func TestScannerLocalName(t *testing.T) {
	s := xmlkit.AcquireScanner([]byte(`<soap:Envelope xmlns:soap="u"><soap:Body/></soap:Envelope>`))
	defer xmlkit.ReleaseScanner(s)
	var locals []string
	for {
		kind, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if kind == xmlkit.NoToken {
			break
		}
		if kind == xmlkit.StartToken {
			locals = append(locals, string(s.LocalName()))
		}
	}
	if strings.Join(locals, ",") != "Envelope,Body" {
		t.Errorf("locals = %v", locals)
	}
}

func TestEscapeElementTextRoundTrip(t *testing.T) {
	for _, val := range []string{
		"plain", "a&b<c>d", `"quoted" & 'apos'`, "tab\tnl\ncr\rend", "uni ☃ 漢",
	} {
		doc := append([]byte("<v>"), xmlkit.EscapeElementText(nil, val)...)
		doc = append(doc, "</v>"...)
		s := xmlkit.AcquireScanner(doc)
		var got []byte
		for {
			kind, err := s.Next()
			if err != nil {
				t.Fatalf("%q: %v", val, err)
			}
			if kind == xmlkit.NoToken {
				break
			}
			if kind == xmlkit.TextToken {
				got, err = s.AppendTo(got)
				if err != nil {
					t.Fatalf("%q: %v", val, err)
				}
			}
		}
		xmlkit.ReleaseScanner(s)
		want := strings.ReplaceAll(strings.ReplaceAll(val, "\r\n", "\n"), "\r", "\n")
		if string(got) != want && val != "tab\tnl\ncr\rend" {
			t.Errorf("round trip %q = %q", val, got)
		}
		// \r survives because the encoder escapes it as &#xD;.
		if val == "tab\tnl\ncr\rend" && string(got) != val {
			t.Errorf("cr round trip = %q", got)
		}
	}
}

func TestScannerZeroAlloc(t *testing.T) {
	doc := []byte(xmlkit.Header + `<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><!-- c --><soap:Body><Echo xmlns="http://soc.example/echo"><text>hello &amp; world ☃</text></Echo></soap:Body></soap:Envelope>`)
	s := xmlkit.AcquireScanner(doc)
	defer xmlkit.ReleaseScanner(s)
	// Warm up internal slices (attr and element stacks grow once).
	for {
		kind, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if kind == xmlkit.NoToken {
			break
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset(doc)
		for {
			kind, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if kind == xmlkit.NoToken {
				return
			}
		}
	})
	if allocs > 0 {
		t.Errorf("scan allocates %.1f per document, want 0", allocs)
	}
}

// splitInputs are documents that XML 1.0 forbids and that the SOAP path
// once accepted while the DOM refused them. Each is a SOAP envelope but
// for its one defect: okInput is the same envelope without it.
var splitInputs = []struct{ name, doc string }{
	{"character reference to U+0000", splitEnvelope("", "&#0;")},
	{"invalid UTF-8 in text", splitEnvelope("", "a\xffb")},
	{"]]> in content", splitEnvelope("", "a]]>b")},
	{"-- inside a comment", splitEnvelope("", "<!-- a -- b -->")},
	{"name with two colons", splitEnvelope("", "<a:b:c/>")},
	{"encoding other than UTF-8", splitEnvelope(`<?xml version="1.0" encoding="latin1"?>`, "x")},
}

var okInput = splitEnvelope(xmlkit.Header, "a &amp; b <!-- a - b --><c/>")

func splitEnvelope(prolog, text string) string {
	return fmt.Sprintf(`%s<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"><soap:Body>`+
		`<Echo xmlns="http://soc.example/echo"><text>%s</text></Echo></soap:Body></soap:Envelope>`, prolog, text)
}

// TestSplitInputsRejectedOnEveryPath: the Scanner, SAX, the DOM and the
// SOAP codec all refuse each split input, and all accept okInput.
func TestSplitInputsRejectedOnEveryPath(t *testing.T) {
	paths := []struct {
		name string
		want error
		read func(doc string) error
	}{
		{"Scanner", xmlkit.ErrParse, func(doc string) error { return scanAll([]byte(doc)) }},
		{"Parse", xmlkit.ErrParse, func(doc string) error { return xmlkit.ParseString(doc, xmlkit.BaseHandler{}) }},
		{"ParseDocumentString", xmlkit.ErrParse, func(doc string) error { _, err := xmlkit.ParseDocumentString(doc); return err }},
		{"soap.DecodeBytes", soap.ErrProtocol, func(doc string) error { _, err := soap.DecodeBytes([]byte(doc)); return err }},
	}
	for _, p := range paths {
		if err := p.read(okInput); err != nil {
			t.Errorf("%s rejects the control envelope: %v", p.name, err)
		}
		for _, in := range splitInputs {
			err := p.read(in.doc)
			if err == nil {
				t.Errorf("%s accepts %s: %q", p.name, in.name, in.doc)
			} else if !errors.Is(err, p.want) {
				t.Errorf("%s rejects %s with %v, not %v", p.name, in.name, err, p.want)
			}
		}
	}
}
