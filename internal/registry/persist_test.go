package registry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"soc/internal/xmlkit"
)

// savedServices saves r and parses the export back into its <service>
// elements.
func savedServices(t *testing.T, r *Registry) []*xmlkit.Node {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	doc, err := xmlkit.ParseDocument(&buf)
	if err != nil {
		t.Fatalf("Save wrote a document that does not parse: %v\n%s", err, buf.String())
	}
	if doc.Root.Name != "directory" {
		t.Fatalf("root is <%s>, want <directory>", doc.Root.Name)
	}
	return doc.Root.Elements()
}

// TestSaveDocument: the export carries every field of every entry —
// lapsed leases included — as one <service> element each.
func TestSaveDocument(t *testing.T) {
	now := time.Date(2014, 2, 7, 12, 0, 0, 0, time.UTC)
	r := New(WithClock(func() time.Time { return now }), WithLease(time.Hour))
	want := seedEntries()
	want[0].Namespace, want[0].Provider = "http://soc.example/enc", "asu"
	for _, e := range want {
		if err := r.Publish(e); err != nil {
			t.Fatalf("Publish(%s): %v", e.Name, err)
		}
	}
	now = now.Add(2 * time.Hour) // every lease has lapsed
	if live := r.List(true); len(live) != 0 {
		t.Fatalf("%d entries still live after their lease", len(live))
	}

	byName := map[string]*xmlkit.Node{}
	for _, el := range savedServices(t, r) {
		if el.Name != "service" {
			t.Fatalf("unexpected element <%s>", el.Name)
		}
		name, _ := el.Attr("name")
		byName[name] = el
	}
	if len(byName) != len(want) {
		t.Fatalf("saved %d services, want %d", len(byName), len(want))
	}
	for _, e := range want {
		el := byName[e.Name]
		if el == nil {
			t.Errorf("%s: not in the document", e.Name)
			continue
		}
		category, _ := el.Attr("category")
		provider, _ := el.Attr("provider")
		got := Entry{
			Name: e.Name, Category: category, Provider: provider,
			Namespace: el.ChildText("namespace"), Doc: el.ChildText("doc"), Endpoint: el.ChildText("endpoint"),
		}
		if got.Category != e.Category || got.Provider != e.Provider || got.Namespace != e.Namespace ||
			got.Doc != e.Doc || got.Endpoint != e.Endpoint {
			t.Errorf("%s: saved %+v, want %+v", e.Name, got, e)
		}
		if got, want := el.ChildText("bindings"), strings.Join(e.Bindings, ","); got != want {
			t.Errorf("%s bindings = %q, want %q", e.Name, got, want)
		}
		if got, want := el.ChildText("operations"), strings.Join(e.Operations, ","); got != want {
			t.Errorf("%s operations = %q, want %q", e.Name, got, want)
		}
	}
}

// TestSavePreservesPublishedTime: <published> is the entry's first
// publication instant in RFC 3339 UTC, not the time of the export.
func TestSavePreservesPublishedTime(t *testing.T) {
	now := time.Date(2014, 2, 7, 12, 0, 0, 0, time.FixedZone("MST", -7*3600))
	published := now
	r := New(WithClock(func() time.Time { return now }))
	if err := r.Publish(Entry{Name: "A", Endpoint: "http://a"}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(36 * time.Hour)
	services := savedServices(t, r)
	if len(services) != 1 {
		t.Fatalf("saved %d services, want 1", len(services))
	}
	text := services[0].ChildText("published")
	if text != "2014-02-07T19:00:00Z" {
		t.Errorf("published = %q, want the RFC 3339 UTC form of %v", text, published)
	}
	if got, err := time.Parse(time.RFC3339, text); err != nil || !got.Equal(published) {
		t.Errorf("published parses to %v (%v), want %v", got, err, published)
	}
}

// TestSaveEmptyDirectory: a registry with no entries still exports a
// well-formed, empty <directory>.
func TestSaveEmptyDirectory(t *testing.T) {
	if services := savedServices(t, New()); len(services) != 0 {
		t.Errorf("empty registry saved %d services", len(services))
	}
}
