package host

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"soc/internal/core"
)

// The REST binding's JSON, append-style: the client encodes arguments
// into a pooled buffer and decodes an answer straight into the one map it
// returns, and the response cache canonicalises a body into its key,
// without reflection or intermediate values. All three agree with
// encoding/json byte for byte and value for value — appendJSONObject
// writes what json.Marshal writes, decodeJSONObject builds what
// json.Unmarshal builds in a map[string]any, canonicalJSON writes what
// marshalling that map would — and differential tests hold them to it.

// maxJSONDepth bounds nesting like encoding/json does, so hostile input
// cannot run the recursive descent out of stack.
const maxJSONDepth = 10000

var errJSONDepth = errors.New("exceeded max depth")

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes json.Marshal copies into a string as
// they are: printable, and none of the quote, the backslash or the three
// it escapes for HTML.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendJSONString appends src as a JSON string literal.
func appendJSONString[S []byte | string](dst []byte, src S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(src[i:min(i+utf8.UTFMax, len(src))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f in encoding/json's float64 spelling.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONObject appends obj as a JSON object, keys sorted.
func appendJSONObject(dst []byte, obj map[string]any) ([]byte, error) {
	if obj == nil {
		return append(dst, "null"...), nil
	}
	var kb [8]string // on the stack for the argument lists services take
	keys := kb[:0]
	for k := range obj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = appendJSONValue(dst, obj[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// appendJSONValue appends one value: the types core.Values carries are
// written directly, anything else goes through json.Marshal.
func appendJSONValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return appendJSONString(dst, x), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case float64:
		return appendJSONFloat(dst, x)
	case core.Values:
		return appendJSONObject(dst, x)
	case map[string]any:
		return appendJSONObject(dst, x)
	case []any:
		if x == nil {
			return append(dst, "null"...), nil
		}
		dst = append(dst, '[')
		for i, e := range x {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendJSONValue(dst, e); err != nil {
				return dst, err
			}
		}
		return append(dst, ']'), nil
	default:
		b, err := json.Marshal(v)
		return append(dst, b...), err
	}
}

// appendJSONIndent appends src — compact JSON as appendJSONObject and
// json.Marshal write it, no whitespace outside strings — laid out the way
// json.Indent(dst, src, "", "  ") lays it out, which is what a
// json.Encoder with SetIndent("", "  ") writes before its newline. src
// may be the part of dst's array below len(dst).
func appendJSONIndent(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			end := i + 1
			for end < len(src) && src[end] != '"' {
				if src[end] == '\\' {
					end++
				}
				end++
			}
			dst = append(dst, src[i:min(end+1, len(src))]...)
			i = end
		case '{', '[':
			dst = append(dst, c)
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				i++
				dst = append(dst, src[i]) // an empty object or array stays closed up
				continue
			}
			depth++
			dst = appendJSONNewline(dst, depth)
		case '}', ']':
			depth--
			dst = append(appendJSONNewline(dst, depth), c)
		case ',':
			dst = appendJSONNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// appendJSONNewline starts a line at nesting depth.
func appendJSONNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// jsonReader is a cursor over one JSON text.
type jsonReader struct {
	data []byte
	pos  int
}

func (r *jsonReader) errorf(format string, args ...any) error {
	return fmt.Errorf("invalid JSON at offset %d: %s", r.pos, fmt.Sprintf(format, args...))
}

// skipSpace advances past whitespace and returns the byte it stops on,
// 0 at the end of the text.
func (r *jsonReader) skipSpace() byte {
	for r.pos < len(r.data) {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\r', '\n':
			r.pos++
		default:
			return c
		}
	}
	return 0
}

// end checks that only whitespace follows the top-level value.
func (r *jsonReader) end() error {
	if r.skipSpace() != 0 || r.pos < len(r.data) {
		return r.errorf("invalid character %q after top-level value", r.data[r.pos])
	}
	return nil
}

// literal consumes word, which the caller saw the first byte of.
func (r *jsonReader) literal(word string) error {
	if len(r.data)-r.pos < len(word) || string(r.data[r.pos:r.pos+len(word)]) != word {
		return r.errorf("invalid literal, want %s", word)
	}
	r.pos += len(word)
	return nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (r *jsonReader) digits() bool {
	from := r.pos
	for r.pos < len(r.data) && r.data[r.pos] >= '0' && r.data[r.pos] <= '9' {
		r.pos++
	}
	return r.pos > from
}

// number consumes a number in JSON's grammar and returns its text.
func (r *jsonReader) number() ([]byte, error) {
	start := r.pos
	if r.pos < len(r.data) && r.data[r.pos] == '-' {
		r.pos++
	}
	switch {
	case r.pos < len(r.data) && r.data[r.pos] == '0':
		r.pos++
	case !r.digits():
		return nil, r.errorf("invalid number")
	}
	if r.pos < len(r.data) && r.data[r.pos] == '.' {
		r.pos++
		if !r.digits() {
			return nil, r.errorf("invalid number: no digits after the point")
		}
	}
	if r.pos < len(r.data) && (r.data[r.pos] == 'e' || r.data[r.pos] == 'E') {
		r.pos++
		if r.pos < len(r.data) && (r.data[r.pos] == '+' || r.data[r.pos] == '-') {
			r.pos++
		}
		if !r.digits() {
			return nil, r.errorf("invalid number: no digits in the exponent")
		}
	}
	return r.data[start:r.pos], nil
}

// float consumes a number as the float64 encoding/json would store.
func (r *jsonReader) float() (float64, error) {
	text, err := r.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return 0, r.errorf("number %s does not fit a float64", text)
	}
	return f, nil
}

// plainString consumes a string literal that decodes to its own bytes —
// no escape, nothing json.Marshal would escape, no byte above ASCII — and
// returns them; ok is false, with nothing consumed, for any other.
func (r *jsonReader) plainString() (s []byte, ok bool) {
	for i := r.pos + 1; i < len(r.data); i++ {
		if c := r.data[i]; c == '"' {
			s = r.data[r.pos+1 : i]
			r.pos = i + 1
			return s, true
		} else if c >= utf8.RuneSelf || !jsonSafe[c] {
			return nil, false
		}
	}
	return nil, false
}

// unquote consumes the string literal at the cursor and appends its
// decoded bytes to dst; invalid UTF-8 and unpaired surrogates become
// U+FFFD, as in encoding/json.
func (r *jsonReader) unquote(dst []byte) ([]byte, error) {
	r.pos++ // the opening quote
	for r.pos < len(r.data) {
		c := r.data[r.pos]
		switch {
		case c == '"':
			r.pos++
			return dst, nil
		case c < 0x20:
			return dst, r.errorf("invalid character %q in string literal", c)
		case c == '\\':
			r.pos++
			if r.pos >= len(r.data) {
				return dst, r.errorf("unexpected end of JSON input")
			}
			esc := r.data[r.pos]
			r.pos++
			switch esc {
			case '"', '\\', '/':
				dst = append(dst, esc)
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := r.hex4(r.pos)
				if rr < 0 {
					return dst, r.errorf("invalid \\u escape")
				}
				r.pos += 4
				if utf16.IsSurrogate(rr) {
					low := rune(-1)
					if r.pos+1 < len(r.data) && r.data[r.pos] == '\\' && r.data[r.pos+1] == 'u' {
						low = r.hex4(r.pos + 2)
					}
					if dec := utf16.DecodeRune(rr, low); dec != unicode.ReplacementChar {
						r.pos += 6
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, rr)
			default:
				r.pos--
				return dst, r.errorf("invalid character %q in string escape code", esc)
			}
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r.pos++
		default:
			rr, size := utf8.DecodeRune(r.data[r.pos:])
			dst = utf8.AppendRune(dst, rr)
			r.pos += size
		}
	}
	return dst, r.errorf("unexpected end of JSON input")
}

// hex4 reads the four hex digits at offset at, -1 if they are not there.
func (r *jsonReader) hex4(at int) rune {
	if len(r.data)-at < 4 {
		return -1
	}
	var rr rune
	for _, c := range r.data[at : at+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rr = rr<<4 | rune(c)
	}
	return rr
}

// str consumes a string literal as a fresh Go string.
func (r *jsonReader) str() (string, error) {
	if s, ok := r.plainString(); ok {
		return string(s), nil
	}
	var stack [64]byte
	b, err := r.unquote(stack[:0])
	return string(b), err
}

// decodeJSONObject decodes a JSON object into a fresh map, value for value
// what json.Unmarshal stores in a map[string]any: float64 numbers, nested
// map[string]any and []any, the last of duplicate keys. A top-level null
// is a nil map; any other top-level value is an error.
func decodeJSONObject(data []byte) (core.Values, error) {
	return decodeJSONObjectInto(nil, data)
}

// decodeJSONObjectInto is decodeJSONObject storing the members in dst — a
// map the caller owns and json.Unmarshal would have added to the same way
// — and returning it; a nil dst is a fresh map. After an error dst may hold
// the members decoded before it.
func decodeJSONObjectInto(dst core.Values, data []byte) (core.Values, error) {
	r := jsonReader{data: data}
	var out core.Values
	switch r.skipSpace() {
	case '{':
		if dst == nil {
			dst = core.Values{}
		}
		if err := r.members(dst, 0); err != nil {
			return nil, err
		}
		out = dst
	case 'n':
		if err := r.literal("null"); err != nil {
			return nil, err
		}
	case 0:
		return nil, r.errorf("unexpected end of JSON input")
	default:
		return nil, r.errorf("want an object")
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return out, nil
}

// object decodes the object at the cursor.
func (r *jsonReader) object(depth int) (map[string]any, error) {
	m := map[string]any{}
	if err := r.members(m, depth); err != nil {
		return nil, err
	}
	return m, nil
}

// members stores the members of the object at the cursor in m.
func (r *jsonReader) members(m map[string]any, depth int) error {
	if depth++; depth > maxJSONDepth {
		return errJSONDepth
	}
	r.pos++ // '{'
	if r.skipSpace() == '}' {
		r.pos++
		return nil
	}
	for more := true; more; r.pos++ {
		if r.skipSpace() != '"' {
			return r.errorf("want a string key")
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		if r.skipSpace() != ':' {
			return r.errorf("want ':' after object key")
		}
		r.pos++
		v, err := r.value(depth)
		if err != nil {
			return err
		}
		m[key] = v
		switch r.skipSpace() {
		case ',':
		case '}':
			more = false
		default:
			return r.errorf("want ',' or '}' after object value")
		}
	}
	return nil
}

// value decodes the value after the cursor.
func (r *jsonReader) value(depth int) (any, error) {
	switch c := r.skipSpace(); {
	case c == '{':
		return r.object(depth)
	case c == '[':
		if depth++; depth > maxJSONDepth {
			return nil, errJSONDepth
		}
		r.pos++
		arr := []any{}
		if r.skipSpace() == ']' {
			r.pos++
			return arr, nil
		}
		for more := true; more; r.pos++ {
			v, err := r.value(depth)
			if err != nil {
				return nil, err
			}
			arr = append(arr, v)
			switch r.skipSpace() {
			case ',':
			case ']':
				more = false
			default:
				return nil, r.errorf("want ',' or ']' after array element")
			}
		}
		return arr, nil
	case c == '"':
		return r.str()
	case c == 't':
		return true, r.literal("true")
	case c == 'f':
		return false, r.literal("false")
	case c == 'n':
		return nil, r.literal("null")
	case c == '-' || (c >= '0' && c <= '9'):
		return r.float()
	case c == 0:
		return nil, r.errorf("unexpected end of JSON input")
	default:
		return nil, r.errorf("invalid character %q looking for beginning of value", c)
	}
}

// jsonCanon canonicalises JSON into buf with idx as its working stack;
// both keep their capacity across uses.
type jsonCanon struct {
	buf []byte
	idx []jsonMember
}

// jsonMember is one parsed object member staged in jsonCanon.buf: its
// decoded key at [key:enc), its canonical `"key":value` at [enc:end).
type jsonMember struct{ key, enc, end int }

// canonicalJSON appends to c.buf the canonical form of the JSON object (or
// null) in data: what json.Marshal writes for the map json.Unmarshal makes
// of it — keys sorted, the last of duplicates, no whitespace, numbers in
// their float64 spelling, strings re-escaped — so two bodies share a form
// exactly when the round trip made them equal. It reports false, for the
// caller to bypass the cache, where json.Unmarshal reports an error.
func (c *jsonCanon) canonicalJSON(data []byte) bool {
	r := jsonReader{data: data}
	c.idx = c.idx[:0]
	switch r.skipSpace() {
	case '{':
		if c.object(&r, 0) != nil {
			return false
		}
	case 'n':
		if r.literal("null") != nil {
			return false
		}
		c.buf = append(c.buf, "null"...)
	default:
		return false
	}
	return r.end() == nil
}

// value appends the canonical form of the value after the cursor.
func (c *jsonCanon) value(r *jsonReader, depth int) error {
	switch ch := r.skipSpace(); {
	case ch == '{':
		return c.object(r, depth)
	case ch == '[':
		if depth++; depth > maxJSONDepth {
			return errJSONDepth
		}
		r.pos++
		c.buf = append(c.buf, '[')
		if r.skipSpace() == ']' {
			r.pos++
			c.buf = append(c.buf, ']')
			return nil
		}
		for more := true; more; r.pos++ {
			if err := c.value(r, depth); err != nil {
				return err
			}
			switch r.skipSpace() {
			case ',':
				c.buf = append(c.buf, ',')
			case ']':
				c.buf = append(c.buf, ']')
				more = false
			default:
				return r.errorf("want ',' or ']' after array element")
			}
		}
		return nil
	case ch == '"':
		if s, ok := r.plainString(); ok {
			c.buf = append(c.buf, '"')
			c.buf = append(c.buf, s...)
			c.buf = append(c.buf, '"')
			return nil
		}
		// Decode behind the cursor, re-escape behind that, close the gap.
		from := len(c.buf)
		var err error
		if c.buf, err = r.unquote(c.buf); err != nil {
			return err
		}
		mid := len(c.buf)
		c.restring(from, mid)
		c.buf = c.buf[:from+copy(c.buf[from:], c.buf[mid:])]
		return nil
	case ch == 't':
		c.buf = append(c.buf, "true"...)
		return r.literal("true")
	case ch == 'f':
		c.buf = append(c.buf, "false"...)
		return r.literal("false")
	case ch == 'n':
		c.buf = append(c.buf, "null"...)
		return r.literal("null")
	case ch == '-' || (ch >= '0' && ch <= '9'):
		f, err := r.float()
		if err != nil {
			return err
		}
		c.buf, err = appendJSONFloat(c.buf, f)
		return err
	case ch == 0:
		return r.errorf("unexpected end of JSON input")
	default:
		return r.errorf("invalid character %q looking for beginning of value", ch)
	}
}

// restring appends the decoded bytes staged at c.buf[from:to) as a string
// literal. The source of the append lies below its destination: growth
// leaves it readable in the old array, no growth leaves it in place.
func (c *jsonCanon) restring(from, to int) {
	c.buf = appendJSONString(c.buf, c.buf[from:to])
}

// object appends the canonical form of the object at the cursor: members
// are staged where the object will start, ordered by decoded key, written
// out in that order behind the staging area and moved down over it.
func (c *jsonCanon) object(r *jsonReader, depth int) error {
	if depth++; depth > maxJSONDepth {
		return errJSONDepth
	}
	r.pos++ // '{'
	start, base := len(c.buf), len(c.idx)
	if r.skipSpace() == '}' {
		r.pos++
		c.buf = append(c.buf, '{', '}')
		return nil
	}
	for more := true; more; r.pos++ {
		if r.skipSpace() != '"' {
			return r.errorf("want a string key")
		}
		m := jsonMember{key: len(c.buf)}
		if s, ok := r.plainString(); ok {
			c.buf = append(c.buf, s...)
		} else {
			var err error
			if c.buf, err = r.unquote(c.buf); err != nil {
				return err
			}
		}
		m.enc = len(c.buf)
		c.restring(m.key, m.enc)
		if r.skipSpace() != ':' {
			return r.errorf("want ':' after object key")
		}
		r.pos++
		c.buf = append(c.buf, ':')
		if err := c.value(r, depth); err != nil {
			return err
		}
		m.end = len(c.buf)
		c.idx = append(c.idx, m)
		switch r.skipSpace() {
		case ',':
		case '}':
			more = false
		default:
			return r.errorf("want ',' or '}' after object value")
		}
	}
	members := c.idx[base:]
	slices.SortStableFunc(members, c.compareKeys) // stable: equal keys stay in input order
	out := len(c.buf)
	c.buf = append(c.buf, '{')
	for i, m := range members {
		if i+1 < len(members) && c.compareKeys(members[i+1], m) == 0 {
			continue // a later duplicate wins
		}
		if len(c.buf) > out+1 {
			c.buf = append(c.buf, ',')
		}
		c.buf = append(c.buf, c.buf[m.enc:m.end]...)
	}
	c.buf = append(c.buf, '}')
	c.buf = c.buf[:start+copy(c.buf[start:], c.buf[out:])]
	c.idx = c.idx[:base]
	return nil
}

func (c *jsonCanon) compareKeys(a, b jsonMember) int {
	return bytes.Compare(c.buf[a.key:a.enc], c.buf[b.key:b.enc])
}
