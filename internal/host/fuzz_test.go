package host

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"soc/internal/callplane"
	"soc/internal/core"
	"soc/internal/soap"
	"soc/internal/wsdl"
)

// FuzzDecodeJSONObject holds decodeJSONObject to json.Unmarshal into a
// map[string]any: the same inputs accepted and deeply equal values. The
// oracle allows the two documented differences: errors agree in presence,
// not in wording, and on an error decodeJSONObject returns no map where
// json.Unmarshal may have filled part of one. A second decode lends the
// names the first found, plainly spelled, and one it did not: it must
// equal the plain decode. Seeds are in testdata/fuzz/FuzzDecodeJSONObject.
func FuzzDecodeJSONObject(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var want map[string]any
		wantErr := json.Unmarshal(data, &want)
		got, err := decodeJSONObject(nil, data, nil)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: decodeJSONObject error %v, json.Unmarshal error %v", data, err, wantErr)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("%q: decodeJSONObject returned %#v with error %v", data, got, err)
			}
			return
		}
		if !reflect.DeepEqual(map[string]any(got), want) {
			t.Fatalf("%q:\n got %#v\nwant %#v", data, got, want)
		}
		names := map[string]string{"absent": "absent"}
		for k := range got {
			if plainName(k) {
				names[k] = k
			}
		}
		lent, err := decodeJSONObject(nil, data, names)
		if err != nil || !reflect.DeepEqual(lent, got) {
			t.Fatalf("%q: with names lent\n got %#v, %v\nwant %#v", data, lent, err, got)
		}
	})
}

// FuzzSOAPCacheKey holds the SOAP cache key that serve derives from its
// one decode of an envelope (ReadRequest, then cacheKey) to the key of a
// decode of its own, soapKeyOracle: where the oracle finds a key, serve
// finds the same; where it finds none, serve bypasses the cache. The
// mounted service declares every operation of the golden contracts, each
// idempotent, and Bump, which is not. Seeds: an envelope per contract
// operation, the soap package's test envelopes, and envelopes that are
// not SOAP requests.
func FuzzSOAPCacheKey(f *testing.F) {
	h := New()
	h.MustMount(contractService(f))
	m, _ := h.mount("Contracts")
	keyed := 0
	seeds := soapKeySeeds(f)
	for _, env := range seeds {
		if _, ok := soapKeyOracle(m, []byte(env)); ok {
			keyed++
		}
		f.Add([]byte(env))
	}
	// The seeds must reach both answers, or a plain run proves little.
	if keyed < 10 || len(seeds)-keyed < 10 {
		f.Fatalf("seeds: %d keyed, %d not", keyed, len(seeds)-keyed)
	}
	f.Fuzz(func(t *testing.T, env []byte) {
		want, wantOK := soapKeyOracle(m, env)
		r := httptest.NewRequest(http.MethodPost, "/services/Contracts/soap", bytes.NewReader(env))
		k := keyerPool.Get().(*cacheKeyer)
		defer k.release()
		k.body = callplane.GetBuffer()
		var key []byte
		ok := m.soapSrv.ReadRequest(httptest.NewRecorder(), r, k.body, &k.soap)
		if ok {
			key, _, ok = h.cacheKey(k, r, nil, m, &k.soap)
		}
		switch {
		case ok != wantOK:
			t.Fatalf("%q: serve keys it %v, the oracle %v", env, ok, wantOK)
		case ok && string(key) != want:
			t.Fatalf("%q:\n key %q\nwant %q", env, key, want)
		}
	})
}

// soapKeyOracle is the SOAP cache key as the host derived it while the
// key and the dispatch each decoded the envelope: soap.DecodeBytes, then
// the parameters sorted by name. ok is false where that path bypassed the
// cache: an oversized body, an envelope that does not decode, an
// operation that is not idempotent.
func soapKeyOracle(m *mounted, body []byte) (key string, ok bool) {
	if len(body) > maxInvokeBody { // the envelope's bound is the same 1 MiB
		return "", false
	}
	msg, err := soap.DecodeBytes(body)
	if err != nil || !m.idempotent[msg.Operation] {
		return "", false
	}
	names := make([]string, 0, len(msg.Params))
	for name := range msg.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	key = "SOAP\x00" + m.metricKey(msg.Operation) + "\x00"
	for _, name := range names {
		key += name + "\x01" + msg.Params[name] + "\x00"
	}
	return key, true
}

// contractOps reads the golden contracts' operations.
func contractOps(tb testing.TB) []wsdl.OpDescription {
	tb.Helper()
	files, err := filepath.Glob("../../contracts/*.wsdl")
	if err != nil || len(files) == 0 {
		tb.Fatalf("contracts: %v, %d files", err, len(files))
	}
	var ops []wsdl.OpDescription
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		d, err := wsdl.Parse(bytes.NewReader(data))
		if err != nil {
			tb.Fatalf("%s: %v", file, err)
		}
		ops = append(ops, d.Ops...)
	}
	return ops
}

// contractService declares every contract operation, idempotent, and the
// non-idempotent Bump(n).
func contractService(tb testing.TB) *core.Service {
	tb.Helper()
	svc, err := core.NewService("Contracts", "http://soc.example/contracts", "")
	if err != nil {
		tb.Fatal(err)
	}
	noop := func(context.Context, core.Values) (core.Values, error) { return core.Values{}, nil }
	declared := map[string]bool{"Bump": true}
	svc.MustAddOperation(core.Operation{Name: "Bump", Input: []core.Param{{Name: "n", Type: core.Int}}, Handler: noop})
	for _, op := range contractOps(tb) {
		if !declared[op.Name] {
			declared[op.Name] = true
			svc.MustAddOperation(core.Operation{Name: op.Name, Input: op.Input, Idempotent: true, Handler: noop})
		}
	}
	return svc
}

// soapKeySeeds are FuzzSOAPCacheKey's seeds.
func soapKeySeeds(tb testing.TB) []string {
	tb.Helper()
	const ns = `xmlns:s="http://schemas.xmlsoap.org/soap/envelope/"`
	seeds := []string{
		`<s:Envelope ` + ns + `><s:Body><CollatzSteps><n>6</n></CollatzSteps></s:Body></s:Envelope>`,
		`<?xml version="1.0"?><!-- c --><Envelope> <Header><Body><Wrong/></Body></Header> <Other><Body><Wrong/></Body></Other>
			<Body> text <!-- c --> <c:CollatzSteps xmlns:c="urn:c"/> </Body></Envelope>`,
		`<Envelope><Header/><Body><CollatzSteps/></Body></Envelope>`,
		`<Envelope><Header><SocTrace>00-0af7651916cd43dd8448eb211c80319c-00f067aa0ba902b7-01</SocTrace></Header><Body><CollatzSteps><n>a</n></CollatzSteps></Body></Envelope>`,
		`<Envelope><Body><CollatzSteps><n>a</n><other>b</other><n>c</n></CollatzSteps></Body></Envelope>`,
		`<Envelope><Body><CollatzSteps><b>&lt;2</b><a> 1 </a><a/></CollatzSteps></Body></Envelope>`,
		`<Envelope><Body><CollatzSteps xmlns="urn:a&amp;b"><n>hi</n></CollatzSteps></Body></Envelope>`,
		`<Envelope><Body><Bump><n>1</n></Bump></Body></Envelope>`,
		`<Envelope><Body><Body><CollatzSteps/></Body></Body></Envelope>`,
		`<Envelope><Body><CollatzSteps/><Bump/></Body></Envelope>`,
		`<Envelope><Body><Fault><faultcode>Client</faultcode></Fault></Body></Envelope>`,
		`<Envelope><Body></Body></Envelope>`,
		`<Envelope><Body/></Envelope>`,
		`<Envelope><Header><CollatzSteps/></Header></Envelope>`,
		`<Envelope></Envelope>`,
		`<Body><CollatzSteps/></Body>`,
		`<Envelope><Body><CollatzSteps>`,
		`<Envelope><Header><a></Header><Body><CollatzSteps/></Body></Envelope>`,
		`<Envelope><Body><CollatzSteps></Bump></Body></Envelope>`,
		``, `not xml`, `<`, `<notenvelope/>`,
	}
	for _, op := range contractOps(tb) {
		m := soap.Message{Operation: op.Name, Namespace: "http://soc.example/contracts", Params: map[string]string{}}
		for i, p := range op.Input {
			m.Params[p.Name] = string(rune('a'+i)) + " <&> "
			m.ParamOrder = append([]string{p.Name}, m.ParamOrder...)
		}
		env, err := soap.Encode(m)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, string(env))
	}
	return seeds
}
