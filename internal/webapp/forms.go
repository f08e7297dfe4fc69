package webapp

import (
	"context"
	"fmt"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"time"

	"soc/internal/vtime"
)

// Field validates one form input.
type Field struct {
	Name     string
	Label    string
	Required bool
	// Pattern, when non-empty, must match the whole value.
	Pattern string
	// Validate, when set, runs after the pattern check, handed the
	// context the form is validated in.
	Validate func(ctx context.Context, value string) error
	compiled *regexp.Regexp
}

// Form is a declarative validator for POSTed forms — the presentation-
// layer validation of the Figure 4 project (SSN format, date of birth,
// matching passwords, ...).
type Form struct {
	fields []Field
}

// NewForm compiles the field declarations.
func NewForm(fields ...Field) (*Form, error) {
	f := &Form{fields: make([]Field, len(fields))}
	seen := map[string]bool{}
	for i, fd := range fields {
		if fd.Name == "" {
			return nil, fmt.Errorf("webapp: field %d unnamed", i)
		}
		if seen[fd.Name] {
			return nil, fmt.Errorf("webapp: duplicate field %q", fd.Name)
		}
		seen[fd.Name] = true
		if fd.Label == "" {
			fd.Label = fd.Name
		}
		if fd.Pattern != "" {
			re, err := regexp.Compile("^(?:" + fd.Pattern + ")$")
			if err != nil {
				return nil, fmt.Errorf("webapp: field %q pattern: %w", fd.Name, err)
			}
			fd.compiled = re
		}
		f.fields[i] = fd
	}
	return f, nil
}

// Errors maps field names to validation messages.
type Errors map[string]string

// Ok reports whether validation passed.
func (e Errors) Ok() bool { return len(e) == 0 }

// Error implements error.
func (e Errors) Error() string {
	if len(e) == 0 {
		return "webapp: no errors"
	}
	var parts []string
	for k, v := range e {
		parts = append(parts, k+": "+v)
	}
	slices.Sort(parts)
	return "webapp: invalid form: " + strings.Join(parts, "; ")
}

// ValidateValues checks raw values against the form.
func (f *Form) ValidateValues(ctx context.Context, values map[string]string) (map[string]string, Errors) {
	clean := map[string]string{}
	errs := Errors{}
	for _, fd := range f.fields {
		v := strings.TrimSpace(values[fd.Name])
		if v == "" {
			if fd.Required {
				errs[fd.Name] = fd.Label + " is required"
			}
			continue
		}
		if fd.compiled != nil && !fd.compiled.MatchString(v) {
			errs[fd.Name] = fd.Label + " has an invalid format"
			continue
		}
		if fd.Validate != nil {
			if err := fd.Validate(ctx, v); err != nil {
				errs[fd.Name] = err.Error()
				continue
			}
		}
		clean[fd.Name] = v
	}
	return clean, errs
}

// ValidateRequest parses the request form and validates it in the
// request's context.
func (f *Form) ValidateRequest(r *http.Request) (map[string]string, Errors) {
	if err := r.ParseForm(); err != nil {
		return nil, Errors{"_form": "unparsable form: " + err.Error()}
	}
	values := map[string]string{}
	for _, fd := range f.fields {
		values[fd.Name] = r.PostFormValue(fd.Name)
	}
	return f.ValidateValues(r.Context(), values)
}

// Common field patterns for course projects.
const (
	PatternSSN   = `\d{3}-\d{2}-\d{4}`
	PatternDate  = `\d{4}-\d{2}-\d{2}`
	PatternEmail = `[^@\s]+@[^@\s]+\.[^@\s]+`
)

// ValidDate verifies a YYYY-MM-DD value is a real calendar date no later
// than now on ctx's clock.
func ValidDate(ctx context.Context, v string) error {
	t, err := time.Parse("2006-01-02", v)
	if err != nil {
		return fmt.Errorf("not a valid date")
	}
	if t.After(vtime.Now(ctx)) {
		return fmt.Errorf("date is in the future")
	}
	return nil
}
