package xmlkit_test

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"soc/internal/xmlkit"
)

// refEscape is the escapers' byte-at-a-time form, the oracle their
// table-driven one must match byte for byte.
func refEscape(s string, attr bool) string {
	var b strings.Builder
	for i := 0; i < len(s); {
		c, n := s[i], 1
		var esc string
		switch {
		case c == '&':
			esc = "&amp;"
		case c == '<':
			esc = "&lt;"
		case c == '>' && !attr:
			esc = "&gt;"
		case c == '"' && attr:
			esc = "&quot;"
		case c == '\r':
			esc = "&#xD;"
		case c == '\n' && attr:
			esc = "&#xA;"
		case c == '\t' && attr:
			esc = "&#x9;"
		case c >= ' ' && c < utf8.RuneSelf, c == '\n', c == '\t':
			b.WriteByte(c)
			i++
			continue
		default:
			var r rune
			if r, n = utf8.DecodeRuneInString(s[i:]); refIsChar(r) && n > 1 {
				b.WriteString(s[i : i+n])
				i += n
				continue
			}
			esc = "\uFFFD"
		}
		b.WriteString(esc)
		i += n
	}
	return b.String()
}

func refIsChar(r rune) bool {
	return r >= 0x20 && r <= 0xD7FF || r == '\t' || r == '\n' || r == '\r' ||
		r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= utf8.MaxRune
}

// TestEscapersMatchReference: both escapers write what refEscape writes,
// appended after what dst held, for every string of up to two bytes, for
// every three-byte string over the bytes where UTF-8 sequences and XML
// Chars begin and end, and for 20,000 seeded strings mixing markup,
// whitespace, control bytes, valid runes, non-Chars and broken sequences.
func TestEscapersMatchReference(t *testing.T) {
	check := func(s string) {
		t.Helper()
		for _, attr := range []bool{false, true} {
			var got []byte
			if attr {
				got = xmlkit.EscapeAttrValue([]byte("pre"), s)
			} else {
				got = xmlkit.EscapeElementText([]byte("pre"), s)
			}
			if want := "pre" + refEscape(s, attr); string(got) != want {
				t.Fatalf("escape(%q, attr=%v) = %q, want %q", s, attr, got, want)
			}
		}
	}
	check("")
	for a := 0; a < 256; a++ {
		check(string([]byte{byte(a)}))
		for b := 0; b < 256; b++ {
			check(string([]byte{byte(a), byte(b)}))
		}
	}
	edges := []byte{0x00, 0x09, 0x0A, 0x0D, 0x1F, ' ', '"', '&', '<', '>', 'a', 0x7F,
		0x80, 0x8F, 0x90, 0xA0, 0xBF, 0xC0, 0xC2, 0xDF, 0xE0, 0xED, 0xEF, 0xF0, 0xF4, 0xF5, 0xFF}
	for _, a := range edges {
		for _, b := range edges {
			for _, c := range edges {
				check(string([]byte{a, b, c}))
			}
		}
	}
	pieces := []string{"plain", " ", "&", "<", ">", `"`, "'", "\t", "\n", "\r", "\x00", "\x1f", "\x7f",
		"é", "☃", "漢", "\U0001F600", "\uFFFD", "\uFFFE", "\uFFFF", "\xed\xa0\x80", "\xc3", "\xe2\x98", "\xff", "&amp;"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		check(b.String())
	}
}

// BenchmarkEscapeElementText writes a W3C trace header's value, which
// needs no escaping, and a value with markup and a multi-byte rune.
func BenchmarkEscapeElementText(b *testing.B) {
	for _, s := range []string{
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		`a "quoted" <tag> & café`,
	} {
		b.Run(s[:8], func(b *testing.B) {
			dst := make([]byte, 0, 128)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = xmlkit.EscapeElementText(dst[:0], s)
			}
		})
	}
}
