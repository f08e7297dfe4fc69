package webapp

import (
	"bytes"
	"context"
	"image/color"
	"image/png"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"soc/internal/vtime"
)

func TestCanvasBasics(t *testing.T) {
	c, err := NewCanvas(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	w, h := c.img.Bounds().Dx(), c.img.Bounds().Dy()
	if w != 10 || h != 8 {
		t.Errorf("size = %dx%d", w, h)
	}
	red := color.RGBA{0xff, 0, 0, 0xff}
	c.Set(3, 3, red)
	r, _, _, _ := c.img.At(3, 3).RGBA()
	if r>>8 != 0xff {
		t.Errorf("pixel not red: %v", c.img.At(3, 3))
	}
	c.Set(-1, -1, red) // clipped, no panic
	c.Set(99, 99, red)
}

func TestNewCanvasValidation(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {9999, 5}} {
		if _, err := NewCanvas(dims[0], dims[1]); err == nil {
			t.Errorf("NewCanvas(%v) accepted", dims)
		}
	}
}

func TestLineEndpoints(t *testing.T) {
	c, _ := NewCanvas(20, 20)
	black := color.RGBA{0, 0, 0, 0xff}
	c.Line(2, 3, 15, 11, black)
	for _, pt := range [][2]int{{2, 3}, {15, 11}} {
		r, g, b, _ := c.img.At(pt[0], pt[1]).RGBA()
		if r != 0 || g != 0 || b != 0 {
			t.Errorf("endpoint %v not drawn", pt)
		}
	}
}

func TestTextRendersInk(t *testing.T) {
	c, _ := NewCanvas(100, 30)
	black := color.RGBA{0, 0, 0, 0xff}
	c.Text(2, 2, "AB3", 2, black)
	ink := 0
	for y := 0; y < 30; y++ {
		for x := 0; x < 100; x++ {
			r, g, b, _ := c.img.At(x, y).RGBA()
			if r == 0 && g == 0 && b == 0 {
				ink++
			}
		}
	}
	if ink < 50 {
		t.Errorf("only %d ink pixels for 'AB3'", ink)
	}
}

func TestTextWidth(t *testing.T) {
	if TextWidth("", 2) != 0 {
		t.Error("empty width nonzero")
	}
	if TextWidth("AB", 1) != 11 { // 2*(5+1)-1
		t.Errorf("width = %d", TextWidth("AB", 1))
	}
}

func TestHasGlyph(t *testing.T) {
	for _, r := range "abcXYZ0189-./:% " {
		if !HasGlyph(r) {
			t.Errorf("missing glyph %q", r)
		}
	}
	if HasGlyph('€') {
		t.Error("unexpected glyph")
	}
}

func TestPNGEncoding(t *testing.T) {
	c, _ := NewCanvas(16, 16)
	data, err := c.PNG()
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if img.Bounds().Dx() != 16 {
		t.Errorf("decoded size = %v", img.Bounds())
	}
}

func TestBarChart(t *testing.T) {
	c, err := BarChart("Enrollment", []string{"2006", "2010", "2013"}, []float64{39, 76, 134}, 320, 200)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PNG(); err != nil {
		t.Fatal(err)
	}
	// Taller value ⇒ more colored pixels in its column region.
	if _, err := BarChart("x", []string{"a"}, []float64{1, 2}, 100, 100); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := BarChart("x", nil, nil, 100, 100); err == nil {
		t.Error("empty chart accepted")
	}
	if _, err := BarChart("x", []string{"a"}, []float64{-1}, 100, 100); err == nil {
		t.Error("negative value accepted")
	}
}

func TestBarChartZeroValues(t *testing.T) {
	if _, err := BarChart("zeros", []string{"a", "b"}, []float64{0, 0}, 120, 90); err != nil {
		t.Errorf("all-zero chart: %v", err)
	}
}

func TestCaptchaDeterministicPerSeed(t *testing.T) {
	a, err := Captcha("X7QF2", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Captcha("X7QF2", 42)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := a.PNG()
	pb, _ := b.PNG()
	if !bytes.Equal(pa, pb) {
		t.Error("same seed produced different captchas")
	}
	c, _ := Captcha("X7QF2", 43)
	pc, _ := c.PNG()
	if bytes.Equal(pa, pc) {
		t.Error("different seeds produced identical captchas")
	}
}

func TestCaptchaValidation(t *testing.T) {
	if _, err := Captcha("", 1); err == nil {
		t.Error("empty text accepted")
	}
	if _, err := Captcha("WAYTOOLONGTEXT", 1); err == nil {
		t.Error("long text accepted")
	}
	if _, err := Captcha("ab€", 1); err == nil {
		t.Error("unrenderable char accepted")
	}
}

func TestFormValidation(t *testing.T) {
	form, err := NewForm(
		Field{Name: "name", Required: true},
		Field{Name: "ssn", Label: "SSN", Required: true, Pattern: PatternSSN},
		Field{Name: "dob", Label: "Date of birth", Pattern: PatternDate, Validate: ValidDate},
		Field{Name: "email", Pattern: PatternEmail},
	)
	if err != nil {
		t.Fatal(err)
	}
	clock := vtime.NewVirtual(time.Date(2014, 2, 1, 0, 0, 0, 0, time.UTC))
	ctx := vtime.WithClock(context.Background(), clock)
	clean, errs := form.ValidateValues(ctx, map[string]string{
		"name": " Ada Lovelace ", "ssn": "123-45-6789", "dob": "1990-12-10", "email": "ada@example.com",
	})
	if !errs.Ok() {
		t.Fatalf("valid form rejected: %v", errs)
	}
	if clean["name"] != "Ada Lovelace" {
		t.Errorf("not trimmed: %q", clean["name"])
	}

	_, errs = form.ValidateValues(ctx, map[string]string{"ssn": "123456789"})
	if errs.Ok() {
		t.Fatal("invalid form accepted")
	}
	if !strings.Contains(errs["name"], "required") {
		t.Errorf("name error = %q", errs["name"])
	}
	if !strings.Contains(errs["ssn"], "invalid format") {
		t.Errorf("ssn error = %q", errs["ssn"])
	}

	tomorrow := map[string]string{"name": "x", "ssn": "123-45-6789", "dob": "2014-02-02"}
	_, errs = form.ValidateValues(ctx, tomorrow)
	if errs["dob"] != "date is in the future" {
		t.Errorf("dob error = %q", errs["dob"])
	}
	// "Now" is the clock of the context the form is validated in.
	clock.Advance(24 * time.Hour)
	if _, errs = form.ValidateValues(ctx, tomorrow); !errs.Ok() {
		t.Errorf("a day later, %v", errs)
	}
	_, errs = form.ValidateValues(ctx, map[string]string{
		"name": "x", "ssn": "123-45-6789", "dob": "1990-13-45",
	})
	if errs["dob"] == "" {
		t.Error("impossible date accepted")
	}
	if !strings.Contains(errs.Error(), "dob") {
		t.Errorf("Error() = %q", errs.Error())
	}
}

func TestFormDefinitionErrors(t *testing.T) {
	if _, err := NewForm(Field{}); err == nil {
		t.Error("unnamed field accepted")
	}
	if _, err := NewForm(Field{Name: "a"}, Field{Name: "a"}); err == nil {
		t.Error("duplicate field accepted")
	}
	if _, err := NewForm(Field{Name: "a", Pattern: "("}); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestValidateRequest(t *testing.T) {
	form, _ := NewForm(Field{Name: "user", Required: true})
	r := httptest.NewRequest("POST", "/signup", strings.NewReader("user=ada"))
	r.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	clean, errs := form.ValidateRequest(r)
	if !errs.Ok() || clean["user"] != "ada" {
		t.Errorf("clean=%v errs=%v", clean, errs)
	}
	r2 := httptest.NewRequest("POST", "/signup", strings.NewReader(""))
	r2.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	_, errs = form.ValidateRequest(r2)
	if errs.Ok() {
		t.Error("missing required field accepted")
	}
}
