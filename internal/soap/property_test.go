package soap

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// sanitizeName maps arbitrary fuzz input to a valid XML element name so
// the property exercises value handling, not name validation.
func sanitizeName(s string, fallback string) string {
	var b strings.Builder
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return fallback
	}
	out := b.String()
	if len(out) > 24 {
		out = out[:24]
	}
	return out
}

// sanitizeValue strips the code points XML 1.0 cannot carry (control
// characters other than tab/newline/cr, and U+FFFE and U+FFFF, which the
// escaper writes as U+FFFD) and U+FFFD itself, while keeping everything
// else, including markup characters.
func sanitizeValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 0xFFFD && r <= 0xFFFF || (r < 0x20 && r != '\t' && r != '\n' && r != '\r') {
			continue
		}
		b.WriteRune(r)
	}
	// The DOM builder drops whitespace-only text nodes, so wrap
	// whitespace-only values.
	if strings.TrimSpace(b.String()) == "" {
		return "v" + b.String() + "v"
	}
	return strings.TrimSpace(b.String())
}

func TestEncodeDecodeProperty(t *testing.T) {
	prop := func(opRaw string, keys [3]string, vals [3]string) bool {
		op := sanitizeName(opRaw, "Op")
		msg := Message{Operation: op, Params: map[string]string{}}
		for i := range keys {
			k := sanitizeName(keys[i], fmt.Sprintf("p%d", i))
			msg.Params[k] = sanitizeValue(vals[i])
		}
		data, err := Encode(msg)
		if err != nil {
			return false
		}
		got, err := DecodeBytes(data)
		if err != nil {
			return false
		}
		if got.Operation != op {
			return false
		}
		for k, v := range msg.Params {
			if got.Params[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFaultRoundTripProperty(t *testing.T) {
	prop := func(msgRaw, detailRaw string) bool {
		f := &Fault{Code: "Server", String: sanitizeValue(msgRaw), Detail: sanitizeValue(detailRaw)}
		data, err := EncodeFault(f)
		if err != nil {
			return false
		}
		_, err = DecodeBytes(data)
		got, ok := err.(*Fault)
		if !ok {
			return false
		}
		return got.Code == "Server" && got.String == f.String && got.Detail == f.Detail
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
