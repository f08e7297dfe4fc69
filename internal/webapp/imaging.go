// Package webapp supplies the web-application layer pieces of CSE445 unit
// 5 that are not plain routing: dynamic graphics generation ("dynamic
// graphics generation to leverage the presentation of Web applications at
// the programming level") — bar and line charts and the captcha image of
// the repository's image-verifier service — plus form parsing and
// validation for the Figure 4 account application.
package webapp

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math/rand"
	"strings"
)

// ErrImage reports invalid drawing parameters.
var ErrImage = errors.New("webapp: invalid image spec")

// Canvas is a drawable RGBA image.
type Canvas struct {
	img *image.RGBA
}

// NewCanvas returns a white canvas of the given size.
func NewCanvas(w, h int) (*Canvas, error) {
	if w < 1 || h < 1 || w > 4096 || h > 4096 {
		return nil, fmt.Errorf("%w: %dx%d", ErrImage, w, h)
	}
	c := &Canvas{img: image.NewRGBA(image.Rect(0, 0, w, h))}
	c.FillRect(0, 0, w, h, color.White)
	return c, nil
}

// Set paints one pixel (silently clipped).
func (c *Canvas) Set(x, y int, col color.Color) {
	if image.Pt(x, y).In(c.img.Bounds()) {
		c.img.Set(x, y, col)
	}
}

// FillRect fills the rectangle [x,x+w)×[y,y+h).
func (c *Canvas) FillRect(x, y, w, h int, col color.Color) {
	for yy := y; yy < y+h; yy++ {
		for xx := x; xx < x+w; xx++ {
			c.Set(xx, yy, col)
		}
	}
}

// Line draws a Bresenham line.
func (c *Canvas) Line(x0, y0, x1, y1 int, col color.Color) {
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		c.Set(x0, y0, col)
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// Text renders s at (x, y) with the bitmap font at the given scale.
// Unknown characters render as blanks.
func (c *Canvas) Text(x, y int, s string, scale int, col color.Color) {
	if scale < 1 {
		scale = 1
	}
	cx := x
	for _, r := range strings.ToUpper(s) {
		glyph, ok := glyphs[r]
		if ok {
			for row := 0; row < GlyphH; row++ {
				for colBit := 0; colBit < GlyphW; colBit++ {
					if glyph[row]&(1<<uint(GlyphW-1-colBit)) != 0 {
						c.FillRect(cx+colBit*scale, y+row*scale, scale, scale, col)
					}
				}
			}
		}
		cx += (GlyphW + 1) * scale
	}
}

// TextWidth returns the pixel width of s at the given scale.
func TextWidth(s string, scale int) int {
	if scale < 1 {
		scale = 1
	}
	n := len([]rune(s))
	if n == 0 {
		return 0
	}
	return n*(GlyphW+1)*scale - scale
}

// PNG encodes the canvas.
func (c *Canvas) PNG() ([]byte, error) {
	var buf bytes.Buffer
	if err := png.Encode(&buf, c.img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Palette is the default chart series palette.
var Palette = []color.RGBA{
	{0x2d, 0x6a, 0xb0, 0xff}, // blue
	{0xc2, 0x4d, 0x2f, 0xff}, // red
	{0x3f, 0x8f, 0x4f, 0xff}, // green
	{0x8f, 0x5f, 0xb8, 0xff}, // purple
	{0xb8, 0x8a, 0x2a, 0xff}, // ochre
}

// BarChart renders labeled values as vertical bars — the dynamic-image
// service's staple output.
func BarChart(title string, labels []string, values []float64, w, h int) (*Canvas, error) {
	if len(labels) == 0 || len(labels) != len(values) {
		return nil, fmt.Errorf("%w: %d labels vs %d values", ErrImage, len(labels), len(values))
	}
	c, err := NewCanvas(w, h)
	if err != nil {
		return nil, err
	}
	maxV := 0.0
	for _, v := range values {
		if v < 0 {
			return nil, fmt.Errorf("%w: negative value %v", ErrImage, v)
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	black := color.RGBA{0, 0, 0, 0xff}
	c.Text(8, 6, title, 2, black)
	top, bottom, left := 28, h-24, 30
	plotH := bottom - top
	c.Line(left, top, left, bottom, black)
	c.Line(left, bottom, w-10, bottom, black)
	n := len(values)
	slot := (w - left - 20) / n
	barW := slot * 2 / 3
	if barW < 1 {
		barW = 1
	}
	for i, v := range values {
		bh := int(float64(plotH) * v / maxV)
		x := left + 10 + i*slot
		c.FillRect(x, bottom-bh, barW, bh, Palette[i%len(Palette)])
		c.Text(x, bottom+6, truncate(labels[i], slot/(GlyphW+1)), 1, black)
	}
	return c, nil
}

func truncate(s string, n int) string {
	if n < 1 {
		return ""
	}
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Captcha renders text as a distorted, noisy verification image (the
// "random string image (image verifier) service"). The rendering is
// deterministic in seed.
func Captcha(text string, seed int64) (*Canvas, error) {
	if text == "" || len(text) > 12 {
		return nil, fmt.Errorf("%w: captcha text length %d", ErrImage, len(text))
	}
	for _, r := range text {
		if !HasGlyph(r) {
			return nil, fmt.Errorf("%w: unrenderable character %q", ErrImage, r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	scale := 3
	w := TextWidth(text, scale) + 40
	h := GlyphH*scale + 30
	c, err := NewCanvas(w, h)
	if err != nil {
		return nil, err
	}
	// Background speckle.
	for i := 0; i < w*h/20; i++ {
		g := uint8(150 + rng.Intn(90))
		c.Set(rng.Intn(w), rng.Intn(h), color.RGBA{g, g, g, 0xff})
	}
	// Characters with per-glyph vertical jitter and color.
	x := 20
	for _, r := range strings.ToUpper(text) {
		col := Palette[rng.Intn(len(Palette))]
		jitter := rng.Intn(11) - 5
		c.Text(x, 12+jitter, string(r), scale, col)
		x += (GlyphW + 1) * scale
	}
	// Strike-through noise lines.
	for i := 0; i < 4; i++ {
		col := Palette[rng.Intn(len(Palette))]
		c.Line(rng.Intn(w/4), rng.Intn(h), w-1-rng.Intn(w/4), rng.Intn(h), col)
	}
	return c, nil
}
