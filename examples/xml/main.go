// Xml: the XML chapter on one service catalog — stream it through a SAX
// handler, load and edit it as a DOM, select from it with XPath, validate
// it against a schema, and transform it into HTML with a stylesheet.
package main

import (
	"fmt"
	"log"

	"soc/internal/xmlkit"
)

const catalog = `<repository>
  <service id="enc" binding="soap"><name>Encryption</name><ops>2</ops></service>
  <service id="cart" binding="rest"><name>ShoppingCart</name><ops>4</ops></service>
  <service id="captcha" binding="rest"><name>ImageVerifier</name><ops>two</ops></service>
</repository>`

func main() {
	// SAX: statistics from the event stream, no tree built.
	counts := xmlkit.NewCountingHandler()
	must(xmlkit.ParseString(catalog, counts))
	fmt.Printf("SAX: %d services, depth %d, %d characters of text\n",
		counts.Elements["service"], counts.MaxDepth, counts.Chars)

	// DOM: the same document as a tree.
	doc, err := xmlkit.ParseDocumentString(catalog)
	must(err)
	first := doc.Root.Child("service")
	fmt.Printf("DOM: elements %v; first service %s (%s)\n", doc.ElementNames(), first.ChildText("name"), first.ChildText("ops"))

	// XPath: selections by path, attribute and position.
	rest, err := xmlkit.Query(doc.Root, "//service[@binding='rest']/name")
	must(err)
	ids, err := xmlkit.QueryStrings(doc.Root, "/repository/service/@id")
	must(err)
	last, err := xmlkit.QueryOne(doc.Root, "/repository/service[last()]")
	must(err)
	fmt.Printf("XPath: %d REST services (first %s); ids %v; last %s\n",
		len(rest), rest[0].Text(), ids, last.Attrs[0].Value)

	// Schema: every service needs a name and an integer operation count.
	schema, err := xmlkit.NewSchema("repository",
		xmlkit.ElementDecl{Name: "repository", Children: []xmlkit.ChildDecl{{Name: "service", Min: 1, Max: -1}}},
		xmlkit.ElementDecl{Name: "service",
			Attrs:    []xmlkit.AttrDecl{{Name: "id", Required: true}, {Name: "binding", Type: xmlkit.TypeString}},
			Children: []xmlkit.ChildDecl{{Name: "name", Min: 1, Max: 1}, {Name: "ops", Min: 1, Max: 1}}},
		xmlkit.ElementDecl{Name: "name", Text: xmlkit.TypeString},
		xmlkit.ElementDecl{Name: "ops", Text: xmlkit.TypeInt},
	)
	must(err)
	fmt.Printf("Schema: %v\n", schema.Validate(doc))
	doc.Root.RemoveChild(last)
	fmt.Printf("Schema, without the captcha entry: valid %v\n", schema.Validate(doc) == nil)

	// XSLT: the catalog as an HTML list.
	xsl, err := xmlkit.ParseStylesheet(`<stylesheet>
  <template match="repository"><ul><apply-templates select="service"/></ul></template>
  <template match="service"><li><value-of select="name"/></li></template>
</stylesheet>`)
	must(err)
	html, err := xsl.Transform(doc)
	must(err)
	fmt.Printf("XSLT: %s\n", html)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
