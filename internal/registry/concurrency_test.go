package registry

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestLookupDuringPublishConsistent drives readers through Get while a
// writer republishes the same entry with paired Doc/Endpoint values:
// every Get must observe one of the two complete versions, never a torn
// mix — the atomicity the directory's lock exists to guarantee.
func TestLookupDuringPublishConsistent(t *testing.T) {
	r := seeded(t)
	versions := map[string]string{
		"alpha flavored directory entry": "http://alpha",
		"bravo flavored directory entry": "http://bravo",
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			doc, ep := "alpha flavored directory entry", "http://alpha"
			if i%2 == 1 {
				doc, ep = "bravo flavored directory entry", "http://bravo"
			}
			if err := r.Publish(Entry{Name: "Flip", Doc: doc, Endpoint: ep}); err != nil {
				t.Errorf("republish: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		e, err := r.Get("Flip")
		if err != nil {
			continue // not yet published on the first iterations
		}
		if want, ok := versions[e.Doc]; !ok || e.Endpoint != want {
			t.Fatalf("torn read: doc %q with endpoint %q", e.Doc, e.Endpoint)
		}
	}
	<-done
}

// TestSearchDuringHeartbeatAndEvict runs the full read surface (Search,
// List, ByCategory, Categories) against concurrent lease renewal and
// eviction — the mixed read/write schedule the directory's lock must
// survive under the race detector.
func TestSearchDuringHeartbeatAndEvict(t *testing.T) {
	r := seeded(t)
	for i := 0; i < 32; i++ {
		e := Entry{
			Name:     fmt.Sprintf("Bulk%d", i),
			Doc:      "bulk service used for concurrent eviction pressure",
			Endpoint: "http://bulk",
			Category: "bulk",
		}
		if err := r.Publish(e); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			//soclint:ignore errdiscard entries may lapse mid-loop; readers tolerate it
			_ = r.Heartbeat(fmt.Sprintf("Bulk%d", i%32))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			r.Evict(0)
		}
	}()
	for i := 0; i < 300; i++ {
		if _, err := r.Search("service", 0); err != nil {
			t.Fatalf("Search during heartbeat/evict: %v", err)
		}
		r.List(true)
		r.ByCategory("bulk")
		r.Categories()
	}
	wg.Wait()
}

// TestSearchDuringRepublishConsistent is the ranked-lookup twin of
// TestLookupDuringPublishConsistent: a writer republishes one entry with
// paired Doc/Endpoint values, unpublishing it between versions, while
// Search and SearchQoS readers check every hit. A hit must hold the query
// token in its Doc and carry that version's Endpoint: a ranking taken from
// one state and an entry copied from another would break one of the two.
func TestSearchDuringRepublishConsistent(t *testing.T) {
	q := NewQoS(seeded(t))
	type version struct{ token, doc, endpoint string }
	versions := []version{
		{"alphaflip", "alphaflip flavored directory entry", "http://alpha"},
		{"bravoflip", "bravoflip flavored directory entry", "http://bravo"},
	}
	check := func(v version, hit Entry) {
		if !slices.Contains(tokenize(hit.Doc), v.token) || hit.Endpoint != v.endpoint {
			t.Errorf("query %q hit %s: doc %q with endpoint %q", v.token, hit.Name, hit.Doc, hit.Endpoint)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, reader := range []func(v version){
		func(v version) {
			matches, err := q.Search(v.token, 0)
			if err != nil {
				t.Errorf("Search: %v", err)
			}
			for _, m := range matches {
				check(v, m.Entry)
			}
		},
		func(v version) {
			matches, err := q.SearchQoS(v.token, 0)
			if err != nil {
				t.Errorf("SearchQoS: %v", err)
			}
			for _, m := range matches {
				check(v, m.Entry)
			}
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reader(versions[i%2])
			}
		}()
	}
	for i := 0; i < 500; i++ {
		v := versions[i%2]
		if err := q.Publish(Entry{Name: "Flip", Doc: v.doc, Endpoint: v.endpoint}); err != nil {
			t.Errorf("republish: %v", err)
			break
		}
		if i%3 == 2 {
			if err := q.Unpublish("Flip"); err != nil {
				t.Errorf("unpublish: %v", err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
}
