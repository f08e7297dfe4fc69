// Package session implements the web-application state management unit of
// CSE445 (unit 5): server-side sessions with cookie correlation and TTL,
// HMAC-signed client-side view-state (the ASP.NET-style hidden field),
// shared application state, and the caching layer with dependency
// invalidation that the course discusses for web data management.
package session

import (
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"soc/internal/vtime"
)

// ErrNoSession reports a missing or expired session.
var ErrNoSession = errors.New("session: no such session")

// ErrTampered reports view-state whose signature does not verify.
var ErrTampered = errors.New("session: view-state tampered")

// Session is one user session.
type Session struct {
	ID      string
	Created time.Time
	Expires time.Time
	mu      sync.RWMutex
	values  map[string]any
}

// Get reads a session value.
func (s *Session) Get(key string) (any, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.values[key]
	return v, ok
}

// GetString reads a string value ("" when absent).
func (s *Session) GetString(key string) string {
	v, _ := s.Get(key)
	str, _ := v.(string)
	return str
}

// Set writes a session value.
func (s *Session) Set(key string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.values[key] = v
}

// Delete removes a session value.
func (s *Session) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.values, key)
}

// Keys returns the sorted value keys.
func (s *Session) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.values))
	for k := range s.values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Manager creates, resolves and expires sessions on the clock of the
// context each call is handed.
type Manager struct {
	mu       sync.Mutex
	sessions map[string]*Session
	ttl      time.Duration
	// CookieName is the correlation cookie (default "SOCSESSION").
	CookieName string
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithTTL sets the session lifetime (default 30 minutes).
func WithTTL(d time.Duration) ManagerOption { return func(m *Manager) { m.ttl = d } }

// NewManager returns an empty session manager.
func NewManager(opts ...ManagerOption) *Manager {
	m := &Manager{
		sessions:   make(map[string]*Session),
		ttl:        30 * time.Minute,
		CookieName: "SOCSESSION",
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

func newID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("session: entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Create starts a new session.
func (m *Manager) Create(ctx context.Context) *Session {
	now := vtime.Now(ctx)
	s := &Session{
		ID:      newID(),
		Created: now,
		Expires: now.Add(m.ttl),
		values:  make(map[string]any),
	}
	m.mu.Lock()
	m.sessions[s.ID] = s
	m.mu.Unlock()
	return s
}

// Get resolves a session by id, renewing its expiry (sliding window).
func (m *Manager) Get(ctx context.Context, id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	now := vtime.Now(ctx)
	if now.After(s.Expires) {
		delete(m.sessions, id)
		return nil, fmt.Errorf("%w: %q expired", ErrNoSession, id)
	}
	s.Expires = now.Add(m.ttl)
	return s, nil
}

// Destroy removes a session.
func (m *Manager) Destroy(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sessions, id)
}

// Len counts live (possibly expired but uncollected) sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Sweep removes expired sessions, returning how many were collected.
func (m *Manager) Sweep(ctx context.Context) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := vtime.Now(ctx)
	n := 0
	for id, s := range m.sessions {
		if now.After(s.Expires) {
			delete(m.sessions, id)
			n++
		}
	}
	return n
}

// FromRequest resolves the request's session from the cookie, creating
// one (and setting the cookie) when absent or expired, on the clock of
// the request's context.
func (m *Manager) FromRequest(w http.ResponseWriter, r *http.Request) *Session {
	ctx := r.Context()
	if c, err := r.Cookie(m.CookieName); err == nil {
		if s, err := m.Get(ctx, c.Value); err == nil {
			return s
		}
	}
	s := m.Create(ctx)
	http.SetCookie(w, &http.Cookie{
		Name:     m.CookieName,
		Value:    s.ID,
		Path:     "/",
		HttpOnly: true,
	})
	return s
}

// ViewState signs and verifies client-side page state: the web-form
// pattern in which per-page state rides in a hidden field and must be
// protected against tampering.
type ViewState struct {
	key []byte
}

// NewViewState returns a signer with the given secret key.
func NewViewState(key []byte) (*ViewState, error) {
	if len(key) < 16 {
		return nil, errors.New("session: view-state key must be at least 16 bytes")
	}
	return &ViewState{key: append([]byte(nil), key...)}, nil
}

// Encode serializes state to a signed, base64 token.
func (v *ViewState) Encode(state map[string]string) (string, error) {
	payload, err := json.Marshal(state)
	if err != nil {
		return "", err
	}
	mac := hmac.New(sha256.New, v.key)
	mac.Write(payload)
	sig := mac.Sum(nil)
	token := base64.URLEncoding.EncodeToString(payload) + "." + base64.URLEncoding.EncodeToString(sig)
	return token, nil
}

// Decode verifies and deserializes a token.
func (v *ViewState) Decode(token string) (map[string]string, error) {
	parts := strings.SplitN(token, ".", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("%w: malformed token", ErrTampered)
	}
	payload, err := base64.URLEncoding.DecodeString(parts[0])
	if err != nil {
		return nil, fmt.Errorf("%w: bad payload encoding", ErrTampered)
	}
	sig, err := base64.URLEncoding.DecodeString(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: bad signature encoding", ErrTampered)
	}
	mac := hmac.New(sha256.New, v.key)
	mac.Write(payload)
	if !hmac.Equal(sig, mac.Sum(nil)) {
		return nil, ErrTampered
	}
	var state map[string]string
	if err := json.Unmarshal(payload, &state); err != nil {
		return nil, fmt.Errorf("%w: bad payload", ErrTampered)
	}
	return state, nil
}

// AppState is process-wide shared state (the "application" scope of web
// frameworks), safe for concurrent use.
type AppState struct {
	mu sync.RWMutex
	m  map[string]any
}

// NewAppState returns an empty application state.
func NewAppState() *AppState { return &AppState{m: make(map[string]any)} }

// Get reads a value.
func (a *AppState) Get(key string) (any, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	v, ok := a.m[key]
	return v, ok
}

// Set writes a value.
func (a *AppState) Set(key string, v any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m[key] = v
}

// Update applies fn atomically to the value at key and stores the result.
func (a *AppState) Update(key string, fn func(cur any) any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m[key] = fn(a.m[key])
}
