package host

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"

	"soc/internal/core"
	"soc/internal/rest"
)

// jsonGen draws random JSON values and random spellings of them — the
// shared input of the codec's differential tests against encoding/json.
type jsonGen struct{ rng *rand.Rand }

var jsonAlphabet = []string{
	"a", "b", "k", "Z", "0", "7", " ", "_", "-", "é", "ß", "世", "😀", "\u2028", "\u2029", "\ufffd",
	`"`, `\`, "/", "<", ">", "&", "\b", "\f", "\n", "\r", "\t", "\x01", "\x1f", "\x7f",
	"\xff", "\xc3", "\xe2\x82", // invalid UTF-8
}

func (g *jsonGen) str() string {
	var b strings.Builder
	for n := g.rng.Intn(7); n > 0; n-- {
		b.WriteString(jsonAlphabet[g.rng.Intn(len(jsonAlphabet))])
	}
	return b.String()
}

func (g *jsonGen) number() float64 {
	switch g.rng.Intn(6) {
	case 0:
		return float64(g.rng.Intn(200) - 100)
	case 1:
		return float64(g.rng.Int63())
	case 2:
		return g.rng.NormFloat64()
	case 3:
		return g.rng.Float64() * math.Pow(10, float64(g.rng.Intn(60)-30))
	case 4:
		return math.Copysign(0, -1)
	default:
		return math.Float64frombits(g.rng.Uint64()&^(0x7ff<<52) | uint64(g.rng.Intn(2046)+1)<<52) // any finite normal
	}
}

// value draws what json.Unmarshal can produce inside a map[string]any.
func (g *jsonGen) value(depth int) any {
	kinds := 7
	if depth >= 3 {
		kinds = 5
	}
	switch g.rng.Intn(kinds) {
	case 0:
		return nil
	case 1:
		return g.rng.Intn(2) == 0
	case 2, 3:
		return g.number()
	case 4:
		return g.str()
	case 5:
		arr := make([]any, g.rng.Intn(4))
		for i := range arr {
			arr[i] = g.value(depth + 1)
		}
		return arr
	default:
		return g.object(depth + 1)
	}
}

func (g *jsonGen) object(depth int) map[string]any {
	m := make(map[string]any)
	for n := g.rng.Intn(5); n > 0; n-- {
		m[g.str()] = g.value(depth)
	}
	return m
}

func (g *jsonGen) space(b *strings.Builder) {
	for n := g.rng.Intn(3); n > 0 && g.rng.Intn(3) == 0; n-- {
		b.WriteByte(" \t\r\n"[g.rng.Intn(4)])
	}
}

// spellString writes s as a literal with a random choice, rune by rune,
// between the raw character, the short escape and \u escapes.
func (g *jsonGen) spellString(b *strings.Builder, s string) {
	b.WriteByte('"')
	for len(s) > 0 {
		r, size := utf8.DecodeRuneInString(s)
		raw := s[:size]
		s = s[size:]
		short := map[rune]string{'"': `\"`, '\\': `\\`, '/': `\/`, '\b': `\b`, '\f': `\f`, '\n': `\n`, '\r': `\r`, '\t': `\t`}[r]
		mustEscape := r < 0x20 || r == '"' || r == '\\'
		switch {
		case r == utf8.RuneError && size == 1:
			b.WriteString(raw) // an invalid byte has no escaped spelling
		case short != "" && g.rng.Intn(2) == 0:
			b.WriteString(short)
		case mustEscape || g.rng.Intn(4) == 0:
			if r >= 0x10000 {
				hi, lo := (r-0x10000)>>10+0xd800, (r-0x10000)&0x3ff+0xdc00
				fmt.Fprintf(b, `\u%04x\u%04X`, hi, lo)
			} else {
				fmt.Fprintf(b, `\u%04x`, r)
			}
		default:
			b.WriteString(raw)
		}
	}
	b.WriteByte('"')
}

func (g *jsonGen) spellNumber(b *strings.Builder, f float64) {
	var s string
	switch g.rng.Intn(4) {
	case 0:
		s = strconv.FormatFloat(f, 'g', -1, 64)
	case 1:
		s = strconv.FormatFloat(f, 'e', -1, 64)
	case 2:
		s = strings.ToUpper(strconv.FormatFloat(f, 'e', -1, 64))
	default:
		s = strconv.FormatFloat(f, 'f', -1, 64)
		if f == math.Trunc(f) && g.rng.Intn(2) == 0 {
			s += ".0"
		}
	}
	b.WriteString(s)
}

// spell writes one of v's spellings: member order, whitespace, number
// format and string escapes are all drawn afresh.
func (g *jsonGen) spell(b *strings.Builder, v any) {
	g.space(b)
	defer g.space(b)
	switch x := v.(type) {
	case nil:
		b.WriteString("null")
	case bool:
		b.WriteString(strconv.FormatBool(x))
	case float64:
		g.spellNumber(b, x)
	case string:
		g.spellString(b, x)
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			g.spell(b, e)
		}
		if len(x) == 0 {
			g.space(b)
		}
		b.WriteByte(']')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		g.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			g.space(b)
			g.spellString(b, k)
			g.space(b)
			b.WriteByte(':')
			g.spell(b, x[k])
		}
		if len(x) == 0 {
			g.space(b)
		}
		b.WriteByte('}')
	default:
		panic(fmt.Sprintf("spell: %T", v))
	}
}

func (g *jsonGen) text(v any) string {
	var b strings.Builder
	g.spell(&b, v)
	return b.String()
}

// damage returns text with a few bytes dropped, doubled, swapped or
// overwritten — mostly invalid JSON, now and then still valid.
func (g *jsonGen) damage(text string) string {
	b := []byte(text)
	for n := 1 + g.rng.Intn(2); n > 0 && len(b) > 0; n-- {
		i := g.rng.Intn(len(b))
		switch g.rng.Intn(5) {
		case 0:
			b = append(b[:i], b[i+1:]...)
		case 1:
			b = append(b[:i+1], b[i:]...)
		case 2:
			b = b[:i]
		case 3:
			b[i] = `{}[],:"\0-+.eE1tfn u`[g.rng.Intn(20)]
		default:
			j := g.rng.Intn(len(b))
			b[i], b[j] = b[j], b[i]
		}
	}
	return string(b)
}

// texts is the corpus every differential test also walks: the shapes the
// generators reach rarely or not at all.
var jsonEdgeTexts = []string{
	``, ` `, `null`, ` null `, `nul`, `nulll`, `{}`, ` { } `, `[]`, `[1]`, `3`, `"s"`, `true`,
	`{"a":1}`, `{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`, `{"a":1 "b":2}`, `{"a":1}x`, `{"a":1}{}`, `{a:1}`,
	`{"a":01}`, `{"a":-}`, `{"a":-0}`, `{"a":1.}`, `{"a":.5}`, `{"a":1e}`, `{"a":1e+}`, `{"a":1E-2}`,
	`{"a":1e999}`, `{"a":-1e999}`, `{"a":1e-999}`, `{"a":12345678901234567890}`, `{"a":0.000001}`, `{"a":0.0000001}`,
	`{"a":1e21}`, `{"a":1e20}`, `{"a":1,"a":2}`, `{"a":{"x":1},"a":{"y":2}}`, `{"b":1,"a":2,"b":3,"a":4}`,
	`{"a":"\ud83d\ude00"}`, `{"a":"\ud83d"}`, `{"a":"\ude00"}`, `{"a":"\ud83d\u0041"}`, `{"a":"\ud83dx"}`,
	`{"a":"\u00"}`, `{"a":"\u00zz"}`, `{"a":"\x"}`, `{"a":"\`, `{"a":"`, `{"a":"` + "\n" + `"}`, `{"a":"` + "\x00" + `"}`,
	`{"\u0061":1,"a":2}`, `{"a":1,"\u0061":2}`, `{"<":">","&":"\u2028"}`, `{"a":[]}`, `{"a":[ ]}`, `{"a":[1,]}`, `{"a":[,1]}`,
	`{"a":tru}`, `{"a":True}`, `{"a":nil}`, `{"a":"b" ,"c" : [ 1 , { "d" : null } ] }`, "{\"a\":\"\xff\"}", "{\"\xff\":1,\"\ufffd\":2}",
	`{"a":"\/"}`, "\ufeff{}", `{"a":1}` + "\x00",
}

func TestDecodeJSONObjectMatchesUnmarshal(t *testing.T) {
	check := func(text string) bool {
		var want map[string]any
		wantErr := json.Unmarshal([]byte(text), &want)
		got, gotErr := decodeJSONObject(nil, []byte(text), nil)
		if (wantErr != nil) != (gotErr != nil) {
			t.Errorf("%q: json.Unmarshal error %v, decodeJSONObject error %v", text, wantErr, gotErr)
			return false
		}
		if wantErr == nil && !reflect.DeepEqual(map[string]any(got), want) {
			t.Errorf("%q:\n got %#v\nwant %#v", text, got, want)
			return false
		}
		return true
	}
	for _, text := range jsonEdgeTexts {
		check(text)
	}
	prop := func(seed int64) bool {
		g := jsonGen{rand.New(rand.NewSource(seed))}
		text := g.text(g.object(0))
		return check(text) && check(g.damage(text))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestAppendJSONObjectMatchesMarshal(t *testing.T) {
	check := func(v map[string]any) bool {
		want, wantErr := json.Marshal(v)
		got, gotErr := appendJSONObject(nil, v)
		if (wantErr != nil) != (gotErr != nil) {
			t.Errorf("%#v: json.Marshal error %v, appendJSONObject error %v", v, wantErr, gotErr)
			return false
		}
		if wantErr == nil && string(got) != string(want) {
			t.Errorf("%#v:\n got %s\nwant %s", v, got, want)
			return false
		}
		return true
	}
	check(nil)
	check(map[string]any{})
	check(map[string]any{"nan": math.NaN()})
	check(map[string]any{"inf": math.Inf(-1)})
	check(map[string]any{
		"i": 7, "i64": int64(-1 << 63), "f": 1e21, "g": 1e-7, "s": "a<b>&\u2028\xff", "n": nil, "b": true,
		"v": core.Values{"z": int64(1), "a": []any{}}, "nilslice": []any(nil), "nilmap": map[string]any(nil),
		"other": []string{"x"}, "u8": uint8(3), "f32": float32(0.1), "num": json.Number("12"),
		"k1": 1, "k2": 2, "k3": 3, "k4": 4, "k5": 5, // past the stack-backed key buffer
	})
	prop := func(seed int64) bool {
		g := jsonGen{rand.New(rand.NewSource(seed))}
		v := g.object(0)
		// What a caller passes carries integers too.
		for n := g.rng.Intn(3); n > 0; n-- {
			if g.rng.Intn(2) == 0 {
				v[g.str()] = g.rng.Int63() - 1<<62
			} else {
				v[g.str()] = g.rng.Intn(1000) - 500
			}
		}
		return check(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// postedTo is a POST invoke request carrying text.
func postedTo(text string) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/services/S/invoke/Op", strings.NewReader(text))
}

// The invoke handler's body decoding against what it was before —
// rest.ReadJSON into a map, copied into the arguments: the same arguments
// for every body both take, and the same refusals but one: a json.Decoder
// stops at the end of the first value, so the old path let anything
// follow the object; the new one wants the body to be the object.
func TestReadInvokeBodyMatchesReadJSON(t *testing.T) {
	check := func(text string) bool {
		var posted map[string]any
		wantErr := rest.ReadJSON(postedTo(text), &posted)
		want := core.Values{}
		for k, v := range posted {
			want[k] = v
		}
		got := core.Values{}
		gotErr := readInvokeBody(postedTo(text), got, nil)
		// A body the cache keyer read is decoded from the keyer's bytes,
		// to the same arguments or the same refusal.
		r, kept := postedTo(text), core.Values{}
		k := keyerPool.Get().(*cacheKeyer)
		k.swapBody(r)
		keptErr := readInvokeBody(r, kept, nil)
		k.release(r)
		if (keptErr != nil) != (gotErr != nil) || (gotErr == nil && !reflect.DeepEqual(kept, got)) {
			t.Errorf("%q: from the keyer's bytes %#v, %v; read afresh %#v, %v", text, kept, keptErr, got, gotErr)
			return false
		}
		switch {
		case gotErr == nil && wantErr != nil:
			t.Errorf("%q: accepted, rest.ReadJSON said %v", text, wantErr)
			return false
		case gotErr != nil && wantErr == nil && json.Valid([]byte(text)):
			t.Errorf("%q: refused with %v, rest.ReadJSON took it", text, gotErr)
			return false
		case gotErr == nil && !reflect.DeepEqual(got, want):
			t.Errorf("%q:\n got %#v\nwant %#v", text, got, want)
			return false
		}
		return true
	}
	for _, text := range jsonEdgeTexts {
		check(text)
	}
	// The bound: a body of exactly 1 MiB is read, one byte more is not.
	pad := strings.Repeat("x", maxInvokeBody-len(`{"pad":""}`))
	check(`{"pad":"` + pad + `"}`)
	if err := readInvokeBody(postedTo(`{"pad":"`+pad+`y"}`), core.Values{}, nil); err == nil {
		t.Error("a body past 1 MiB was accepted")
	}
	r := postedTo(`{"pad":"` + pad + `y"}`)
	k := keyerPool.Get().(*cacheKeyer)
	k.swapBody(r)
	if err := readInvokeBody(r, core.Values{}, nil); err == nil {
		t.Error("a body past 1 MiB was accepted from the keyer's bytes")
	}
	k.release(r)
	prop := func(seed int64) bool {
		g := jsonGen{rand.New(rand.NewSource(seed))}
		text := g.text(g.object(0))
		return check(text) && check(g.damage(text))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// An invocation result leaves the handler byte for byte as
// rest.WriteResponse wrote it: same status, same Content-Type, same body.
func TestWriteInvokeResultMatchesWriteResponse(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/services/S/invoke/Op", nil)
	check := func(v core.Values) bool {
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		rest.WriteResponse(want, r, http.StatusOK, v)
		writeInvokeResult(got, r, v)
		if _, err := json.Marshal(v); err != nil {
			// Nothing to be identical to: the encoder had committed a 200 and
			// then written no body. Now the caller is told.
			if got.Code != http.StatusInternalServerError {
				t.Errorf("%#v: status %d for a result that does not encode, want 500", v, got.Code)
				return false
			}
			return true
		}
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || got.Body.String() != want.Body.String() {
			t.Errorf("%#v:\n got %d %v %q\nwant %d %v %q", v,
				got.Code, got.Header(), got.Body.String(), want.Code, want.Header(), want.Body.String())
			return false
		}
		return true
	}
	check(nil)
	check(core.Values{})
	check(core.Values{"nan": math.NaN()})
	check(core.Values{"ok": true})
	check(core.Values{
		"i": 7, "i64": int64(-1 << 63), "f": 1e21, "g": 1e-7, "n": nil, "b": false,
		"s": "a<b>&\u2028\xff", "brackets": `{"[,]":"}"}\`, "esc": `\"`, "": "empty key",
		"v":        core.Values{"z": int64(1), "a": []any{}, "m": map[string]any{}},
		"deep":     []any{[]any{[]any{}, map[string]any{"k": []any{1, "two", nil}}}},
		"nilslice": []any(nil), "nilmap": map[string]any(nil),
		"strings": []string{"x", "y"}, "none": []string{}, "ints": map[string]int{"b": 2, "a": 1},
		"u8": uint8(3), "f32": float32(0.1), "num": json.Number("12"),
		"raw": json.RawMessage(`{ "spaced" : [ 1 , { } , "a : b" ] }`),
		"struct": struct {
			A string `json:"a"`
			B []int  `json:"b"`
		}{"<x>", []int{1, 2}},
	})
	prop := func(seed int64) bool {
		g := jsonGen{rand.New(rand.NewSource(seed))}
		v := g.object(0)
		for n := g.rng.Intn(3); n > 0; n-- {
			v[g.str()] = g.rng.Int63() - 1<<62
		}
		return check(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
