package registry

import (
	"bytes"
	"io"
	"strings"
	"time"

	"soc/internal/wal"
	"soc/internal/xmlkit"
)

// The registry exports as an XML directory document — the same data
// shape the ASU repository's registration page collects. It is an
// export only (wsrepo writes directory.xml next to the WAL, which is
// what recovery reads):
//
//	<directory>
//	  <service name="..." category="..." provider="...">
//	    <namespace>...</namespace>
//	    <doc>...</doc>
//	    <endpoint>...</endpoint>
//	    <bindings>soap,rest</bindings>
//	    <operations>Encrypt,Decrypt</operations>
//	    <published>RFC3339</published>
//	  </service>
//	</directory>

// Save writes every entry (live or lapsed) to w as XML.
func (r *Registry) Save(w io.Writer) error {
	root := xmlkit.NewElement("directory")
	for _, e := range r.List(false) {
		el := root.AppendChild(xmlkit.NewElement("service"))
		el.SetAttr("name", e.Name)
		if e.Category != "" {
			el.SetAttr("category", e.Category)
		}
		if e.Provider != "" {
			el.SetAttr("provider", e.Provider)
		}
		appendText := func(name, value string) {
			if value == "" {
				return
			}
			c := el.AppendChild(xmlkit.NewElement(name))
			c.AppendChild(xmlkit.NewText(value))
		}
		appendText("namespace", e.Namespace)
		appendText("doc", e.Doc)
		appendText("endpoint", e.Endpoint)
		appendText("bindings", strings.Join(e.Bindings, ","))
		appendText("operations", strings.Join(e.Operations, ","))
		appendText("published", e.Published.UTC().Format(time.RFC3339))
	}
	doc := &xmlkit.Document{Root: root}
	return doc.Write(w)
}

// SaveFile writes the XML directory document to path atomically: temp
// file + fsync + rename + directory fsync, so a crash mid-export leaves
// either the previous document or the new one, never a truncated mix.
func (r *Registry) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		return err
	}
	return wal.WriteFileAtomic(path, buf.Bytes(), 0o644)
}
