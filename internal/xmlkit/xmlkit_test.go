package xmlkit

import (
	"errors"
	"strings"
	"testing"
)

const catalog = `<?xml version="1.0"?>
<catalog owner="asu">
  <!-- sample repository listing -->
  <service id="s1" kind="rest">
    <name>Encryption</name>
    <endpoint>http://venus/enc</endpoint>
  </service>
  <service id="s2" kind="soap">
    <name>ShoppingCart</name>
    <endpoint>http://venus/cart</endpoint>
  </service>
  <service id="s3" kind="rest">
    <name>Mortgage</name>
    <endpoint>http://venus/mortgage</endpoint>
  </service>
</catalog>`

type recordingHandler struct {
	BaseHandler
	events []string
}

func (r *recordingHandler) StartDocument() error {
	r.events = append(r.events, "start-doc")
	return nil
}
func (r *recordingHandler) EndDocument() error { r.events = append(r.events, "end-doc"); return nil }
func (r *recordingHandler) StartElement(name string, attrs []Attr) error {
	r.events = append(r.events, "<"+name+">")
	return nil
}
func (r *recordingHandler) EndElement(name string) error {
	r.events = append(r.events, "</"+name+">")
	return nil
}
func (r *recordingHandler) Comment(text string) error {
	r.events = append(r.events, "<!--")
	return nil
}

func TestSAXEventOrder(t *testing.T) {
	h := &recordingHandler{}
	if err := ParseString(`<a><b/><c>x</c></a>`, h); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := []string{"start-doc", "<a>", "<b>", "</b>", "<c>", "</c>", "</a>", "end-doc"}
	if strings.Join(h.events, " ") != strings.Join(want, " ") {
		t.Errorf("events = %v, want %v", h.events, want)
	}
}

func TestSAXComment(t *testing.T) {
	h := &recordingHandler{}
	if err := ParseString(`<a><!-- hi --></a>`, h); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	found := false
	for _, e := range h.events {
		if e == "<!--" {
			found = true
		}
	}
	if !found {
		t.Error("comment event not delivered")
	}
}

func TestSAXMalformed(t *testing.T) {
	for _, doc := range []string{`<a><b></a>`, `<a>`, ``, `<a/><b/>`} {
		if err := ParseString(doc, &recordingHandler{}); err == nil {
			t.Errorf("malformed %q accepted", doc)
		}
	}
}

func TestSAXNilHandler(t *testing.T) {
	if err := ParseString("<a/>", nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestSAXHandlerAbort(t *testing.T) {
	h := &abortHandler{}
	err := ParseString(`<a><b/></a>`, h)
	if err == nil || !strings.Contains(err.Error(), "abort") {
		t.Errorf("err = %v", err)
	}
}

type abortHandler struct{ BaseHandler }

func (abortHandler) StartElement(name string, _ []Attr) error {
	if name == "b" {
		return errAbort
	}
	return nil
}

var errAbort = errors.New("handler abort")

func TestCountingHandler(t *testing.T) {
	c := NewCountingHandler()
	if err := ParseString(catalog, c); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Elements["service"] != 3 {
		t.Errorf("service count = %d, want 3", c.Elements["service"])
	}
	if c.Elements["name"] != 3 || c.Elements["endpoint"] != 3 {
		t.Errorf("counts = %v", c.Elements)
	}
	if c.MaxDepth != 3 {
		t.Errorf("max depth = %d, want 3", c.MaxDepth)
	}
	if c.Chars == 0 {
		t.Error("no characters counted")
	}
}

func TestDOMParseAndNavigate(t *testing.T) {
	doc, err := ParseDocumentString(catalog)
	if err != nil {
		t.Fatalf("ParseDocument: %v", err)
	}
	if doc.Root.Name != "catalog" {
		t.Fatalf("root = %q", doc.Root.Name)
	}
	if v, ok := doc.Root.Attr("owner"); !ok || v != "asu" {
		t.Errorf("owner attr = %q,%v", v, ok)
	}
	services := doc.Root.Elements()
	if len(services) != 3 {
		t.Fatalf("children = %d, want 3", len(services))
	}
	if services[1].ChildText("name") != "ShoppingCart" {
		t.Errorf("second service name = %q", services[1].ChildText("name"))
	}
	if services[0].Child("nonexistent") != nil {
		t.Error("Child found nonexistent element")
	}
	if services[0].ChildText("nonexistent") != "" {
		t.Error("ChildText nonzero for missing child")
	}
}

func TestDOMMutation(t *testing.T) {
	root := NewElement("repo")
	svc := root.AppendChild(NewElement("service"))
	svc.SetAttr("id", "x1")
	svc.SetAttr("id", "x2") // replace
	svc.AppendChild(NewText("hello"))
	if v, _ := svc.Attr("id"); v != "x2" {
		t.Errorf("attr = %q", v)
	}
	if svc.Text() != "hello" {
		t.Errorf("text = %q", svc.Text())
	}
	if svc.Parent != root {
		t.Error("parent not set")
	}
	if !root.RemoveChild(svc) {
		t.Error("RemoveChild failed")
	}
	if root.RemoveChild(svc) {
		t.Error("RemoveChild succeeded twice")
	}
	if len(root.Children) != 0 || svc.Parent != nil {
		t.Error("detach incomplete")
	}
}

func TestDOMRoundTrip(t *testing.T) {
	doc, err := ParseDocumentString(catalog)
	if err != nil {
		t.Fatal(err)
	}
	out := doc.String()
	if out == "" {
		t.Fatal("serialize failed")
	}
	doc2, err := ParseDocumentString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(doc2.Root.Elements()) != 3 {
		t.Errorf("round trip lost services: %d", len(doc2.Root.Elements()))
	}
	if doc2.Root.Elements()[0].ChildText("name") != "Encryption" {
		t.Error("round trip lost text")
	}
}

func TestDOMSerializeEscapes(t *testing.T) {
	root := NewElement("a")
	root.SetAttr("q", `x<y&"z"`)
	root.AppendChild(NewText("1 < 2 & 3"))
	doc := &Document{Root: root}
	out := doc.String()
	if strings.Contains(out, "1 < 2") {
		t.Errorf("unescaped text in %q", out)
	}
	doc2, err := ParseDocumentString(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if doc2.Root.Text() != "1 < 2 & 3" {
		t.Errorf("text = %q", doc2.Root.Text())
	}
	if v, _ := doc2.Root.Attr("q"); v != `x<y&"z"` {
		t.Errorf("attr = %q", v)
	}
}

// TestDOMWriteRoundTripsOrRefuses: what Document.Write writes, the
// Scanner reads back to the same tree; a comment, name or prefix no XML
// document can hold is refused with ErrParse instead of written.
func TestDOMWriteRoundTripsOrRefuses(t *testing.T) {
	build := func(name, attr, comment string) *Document {
		root := NewElement(name)
		root.SetAttr(attr, "v")
		root.AppendChild(&Node{Type: CommentNode, Data: comment})
		root.AppendChild(NewElement("b")).AppendChild(NewText("t"))
		return &Document{Root: root}
	}
	var b strings.Builder
	good := build("p:a", "x-y.z", " a - b ")
	good.Root.SetAttr("xmlns:p", "urn:p")
	if err := good.Write(&b); err != nil {
		t.Fatal(err)
	}
	doc, err := ParseDocumentString(b.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", b.String(), err)
	}
	if c := doc.Root.Children[0]; doc.Root.Name != "a" || c.Type != CommentNode || c.Data != " a - b " || doc.Root.ChildText("b") != "t" {
		t.Fatalf("round trip of %q gave %+v", b.String(), doc.Root)
	}
	if v, _ := doc.Root.Attr("x-y.z"); v != "v" {
		t.Fatalf("attribute read back as %q", v)
	}

	for _, bad := range []struct{ name, attr, comment string }{
		{"a", "x", "x -- y"},
		{"a", "x", "x-"},
		{"a b", "x", ""},
		{"1a", "x", ""},
		{"", "x", ""},
		{"a", "x=", ""},
		{"a", "x:y:z", ""},
		{"a\u00d7", "x", ""},
		{"p:a", "x", ""},
		{"a", "p:x", ""},
	} {
		b.Reset()
		if err := build(bad.name, bad.attr, bad.comment).Write(&b); !errors.Is(err, ErrParse) || b.Len() != 0 {
			t.Errorf("Write(<%s %s='v'><!--%s-->) = %v, wrote %q; want ErrParse and nothing", bad.name, bad.attr, bad.comment, err, b.String())
		}
	}
}

func TestElementNames(t *testing.T) {
	doc, _ := ParseDocumentString(catalog)
	names := doc.ElementNames()
	want := []string{"catalog", "endpoint", "name", "service"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("names = %v", names)
	}
}

func TestXPathChildPaths(t *testing.T) {
	doc, _ := ParseDocumentString(catalog)
	nodes, err := Query(doc.Root, "/catalog/service")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(nodes) != 3 {
		t.Errorf("matches = %d, want 3", len(nodes))
	}
	nodes, err = Query(doc.Root, "service/name")
	if err != nil || len(nodes) != 3 {
		t.Errorf("relative query = %d,%v", len(nodes), err)
	}
}

func TestXPathDescendant(t *testing.T) {
	doc, _ := ParseDocumentString(catalog)
	names, err := QueryStrings(doc.Root, "//name")
	if err != nil {
		t.Fatalf("QueryStrings: %v", err)
	}
	if len(names) != 3 || names[0] != "Encryption" || names[2] != "Mortgage" {
		t.Errorf("names = %v", names)
	}
}

func TestXPathPredicates(t *testing.T) {
	doc, _ := ParseDocumentString(catalog)
	cases := []struct {
		expr string
		want int
	}{
		{"/catalog/service[@kind='rest']", 2},
		{"/catalog/service[@kind='soap']", 1},
		{"/catalog/service[@kind]", 3},
		{"/catalog/service[@missing]", 0},
		{"/catalog/service[2]", 1},
		{"/catalog/service[last()]", 1},
		{"/catalog/service[9]", 0},
		{"/catalog/service[name='Mortgage']", 1},
		{"/catalog/service[name]", 3},
		{"/catalog/service[@kind='rest'][2]", 1},
		{"//service[name='ShoppingCart']", 1},
		{"/catalog/*", 3},
	}
	for _, c := range cases {
		nodes, err := Query(doc.Root, c.expr)
		if err != nil {
			t.Errorf("Query(%q): %v", c.expr, err)
			continue
		}
		if len(nodes) != c.want {
			t.Errorf("Query(%q) = %d matches, want %d", c.expr, len(nodes), c.want)
		}
	}
}

func TestXPathPositionalSemantics(t *testing.T) {
	doc, _ := ParseDocumentString(catalog)
	n, err := QueryOne(doc.Root, "/catalog/service[2]")
	if err != nil || n == nil {
		t.Fatalf("QueryOne: %v %v", n, err)
	}
	if n.ChildText("name") != "ShoppingCart" {
		t.Errorf("service[2] = %q", n.ChildText("name"))
	}
	last, err := QueryOne(doc.Root, "/catalog/service[last()]")
	if err != nil || last == nil || last.ChildText("name") != "Mortgage" {
		t.Errorf("service[last()] wrong")
	}
}

func TestXPathAttributeAndText(t *testing.T) {
	doc, _ := ParseDocumentString(catalog)
	ids, err := QueryStrings(doc.Root, "/catalog/service/@id")
	if err != nil {
		t.Fatalf("QueryStrings: %v", err)
	}
	if strings.Join(ids, ",") != "s1,s2,s3" {
		t.Errorf("ids = %v", ids)
	}
	texts, err := QueryStrings(doc.Root, "/catalog/service[1]/name/text()")
	if err != nil || len(texts) != 1 || texts[0] != "Encryption" {
		t.Errorf("text() = %v, %v", texts, err)
	}
}

func TestXPathParentAndSelf(t *testing.T) {
	doc, _ := ParseDocumentString(catalog)
	svc, _ := QueryOne(doc.Root, "//service[@id='s2']")
	up, err := Query(svc, "..")
	if err != nil || len(up) != 1 || up[0].Name != "catalog" {
		t.Errorf("parent = %v, %v", up, err)
	}
	self, err := Query(svc, ".")
	if err != nil || len(self) != 1 || self[0] != svc {
		t.Errorf("self = %v, %v", self, err)
	}
}

func TestXPathErrors(t *testing.T) {
	doc, _ := ParseDocumentString(catalog)
	for _, expr := range []string{"", "/", "a[", "a[0]", "a[@k=v]", "//"} {
		if _, err := Query(doc.Root, expr); err == nil {
			t.Errorf("Query(%q) accepted", expr)
		}
	}
	if _, err := Query(doc.Root, "/catalog/service/@id"); err == nil {
		t.Error("Query on @attr expression accepted (should need QueryStrings)")
	}
	if _, err := Query(nil, "/a"); err == nil {
		t.Error("nil context accepted")
	}
}

func TestXPathAbsoluteFromNestedNode(t *testing.T) {
	doc, _ := ParseDocumentString(catalog)
	name, _ := QueryOne(doc.Root, "//service[1]/name")
	// Absolute query from a nested context must search from the root.
	all, err := Query(name, "//service")
	if err != nil || len(all) != 3 {
		t.Errorf("absolute from nested = %d, %v", len(all), err)
	}
}

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("catalog",
		ElementDecl{Name: "catalog", Attrs: []AttrDecl{{Name: "owner", Required: true}},
			Children: []ChildDecl{{Name: "service", Min: 1, Max: -1}}},
		ElementDecl{Name: "service",
			Attrs: []AttrDecl{
				{Name: "id", Required: true, Pattern: `s\d+`},
				{Name: "kind", Required: true, Pattern: `rest|soap`},
			},
			Children: []ChildDecl{{Name: "name", Min: 1, Max: 1}, {Name: "endpoint", Min: 1, Max: 1}},
			Ordered:  true},
		ElementDecl{Name: "name"},
		ElementDecl{Name: "endpoint", TextPattern: `http://.+`},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaValidDocument(t *testing.T) {
	s := testSchema(t)
	doc, _ := ParseDocumentString(catalog)
	if err := s.Validate(doc); err != nil {
		t.Errorf("valid document rejected: %v", err)
	}
}

func TestSchemaViolations(t *testing.T) {
	s := testSchema(t)
	cases := []struct {
		doc  string
		want string
	}{
		{`<wrong/>`, "root is"},
		{`<catalog><service id="s1" kind="rest"><name>n</name><endpoint>http://x</endpoint></service></catalog>`, "missing required attribute"},
		{`<catalog owner="a"/>`, "occurs 0 times"},
		{`<catalog owner="a"><service id="bad" kind="rest"><name>n</name><endpoint>http://x</endpoint></service></catalog>`, "does not match pattern"},
		{`<catalog owner="a"><service id="s1" kind="ftp"><name>n</name><endpoint>http://x</endpoint></service></catalog>`, "does not match pattern"},
		{`<catalog owner="a"><service id="s1" kind="rest"><endpoint>http://x</endpoint><name>n</name></service></catalog>`, "out of order"},
		{`<catalog owner="a"><service id="s1" kind="rest"><name>n</name><endpoint>ftp://x</endpoint></service></catalog>`, "does not match pattern"},
		{`<catalog owner="a"><service id="s1" kind="rest"><name>n</name><endpoint>http://x</endpoint><extra/></service></catalog>`, "unexpected child"},
	}
	for _, c := range cases {
		doc, err := ParseDocumentString(c.doc)
		if err != nil {
			t.Fatalf("parse %q: %v", c.doc, err)
		}
		verr := s.Validate(doc)
		if verr == nil {
			t.Errorf("doc %q validated, want violation %q", c.doc, c.want)
			continue
		}
		if !strings.Contains(verr.Error(), c.want) {
			t.Errorf("doc %q: violations %v do not mention %q", c.doc, verr, c.want)
		}
	}
}

func TestSchemaTypedText(t *testing.T) {
	s, err := NewSchema("n",
		ElementDecl{Name: "n", Children: []ChildDecl{{Name: "age", Min: 1, Max: 1}, {Name: "dob", Min: 0, Max: 1}}},
		ElementDecl{Name: "age", Text: TypeInt},
		ElementDecl{Name: "dob", Text: TypeDate},
	)
	if err != nil {
		t.Fatal(err)
	}
	good, _ := ParseDocumentString(`<n><age>42</age><dob>2006-01-02</dob></n>`)
	if err := s.Validate(good); err != nil {
		t.Errorf("good doc rejected: %v", err)
	}
	bad, _ := ParseDocumentString(`<n><age>forty</age><dob>01/02/2006</dob></n>`)
	verr := s.Validate(bad)
	if verr == nil {
		t.Fatal("typed violations missed")
	}
	if got := verr.(*ValidationError); len(got.Violations) != 2 {
		t.Errorf("violations = %v, want 2", got.Violations)
	}
}

func TestSchemaDefinitionErrors(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty root accepted")
	}
	if _, err := NewSchema("a", ElementDecl{Name: "b"}); err == nil {
		t.Error("undeclared root accepted")
	}
	if _, err := NewSchema("a", ElementDecl{Name: "a", Children: []ChildDecl{{Name: "ghost"}}}); err == nil {
		t.Error("undeclared child accepted")
	}
	if _, err := NewSchema("a", ElementDecl{Name: "a"}, ElementDecl{Name: "a"}); err == nil {
		t.Error("duplicate declaration accepted")
	}
	if _, err := NewSchema("a", ElementDecl{Name: "a", TextPattern: "("}); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := NewSchema("a", ElementDecl{Name: "a"}, ElementDecl{Name: "b"}); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

func TestCheckValue(t *testing.T) {
	good := []struct {
		t DataType
		v string
	}{
		{TypeString, "anything"}, {TypeInt, " 42 "}, {TypeFloat, "3.14"},
		{TypeBool, "true"}, {TypeBool, "0"}, {TypeDate, "2014-02-07"},
	}
	for _, c := range good {
		if err := CheckValue(c.t, c.v); err != nil {
			t.Errorf("CheckValue(%s, %q) = %v", c.t, c.v, err)
		}
	}
	bad := []struct {
		t DataType
		v string
	}{
		{TypeInt, "4.2"}, {TypeFloat, "pi"}, {TypeBool, "yes"},
		{TypeDate, "Feb 7 2014"}, {"weird", "x"},
	}
	for _, c := range bad {
		if err := CheckValue(c.t, c.v); err == nil {
			t.Errorf("CheckValue(%s, %q) accepted", c.t, c.v)
		}
	}
}
