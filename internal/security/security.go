// Package security implements the dependability-security mechanisms of
// CSE445 unit 6 ("designs and implements the security mechanisms that
// safeguard the Web applications"): salted iterated password hashing
// (PBKDF2-HMAC-SHA256, implemented from the RFC against the stdlib
// primitives), HMAC-signed expiring tokens, role-based access control,
// password strength policy (the Figure 4 "Strong?" check), AES-GCM
// payload encryption for the repository's encryption service, and an
// audit log.
package security

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
)

// ErrAuth reports failed authentication or verification.
var ErrAuth = errors.New("security: authentication failed")

// ErrDenied reports an authorization denial.
var ErrDenied = errors.New("security: access denied")

// PBKDF2 derives a key from password and salt using HMAC-SHA256 with the
// given iteration count (RFC 2898 §5.2).
//
// The HMAC is built here from RFC 2104's pads: each pad block is hashed
// once per derivation and its SHA-256 midstate saved. U₁ of each output
// block is an ordinary HMAC from those midstates (the salt is any
// length). From U₂ on, the inner and the outer message are both one
// 32-byte value after one pad block, so their last block is always
// U‖0x80‖0…‖BE64(768): a round restores a midstate, compresses that one
// block and reads the chaining value back as the digest, twice, then
// XORs. No Sum, padding write or digest copy per round; four
// allocations per call (the scratch kernel, its two digests and the
// output), none per round. Nothing outlives the call: a cache of keys
// or midstates would keep key-equivalent secrets alive.
func PBKDF2(password, salt []byte, iterations, keyLen int) []byte {
	if iterations < 1 || keyLen < 1 {
		return nil
	}
	const hashLen = sha256.Size
	blocks := (keyLen + hashLen - 1) / hashLen
	out := make([]byte, blocks*hashLen)
	k := newPBKDF2Kernel(password)
	u := k.block[:hashLen]
	for i := 1; i <= blocks; i++ {
		binary.BigEndian.PutUint32(k.counter[:], uint32(i))
		k.inner.restore()
		k.inner.h.Write(salt)
		k.inner.h.Write(k.counter[:])
		k.inner.h.Sum(u[:0])
		k.outer.restore()
		k.outer.h.Write(u)
		k.outer.h.Sum(u[:0])
		t := out[(i-1)*hashLen : i*hashLen]
		copy(t, u)
		for n := 1; n < iterations; n++ {
			k.compress(&k.inner)
			k.compress(&k.outer)
			subtle.XORBytes(t, t, u)
		}
	}
	return out[:keyLen]
}

// midstateLen is the size of a marshalled SHA-256 state: the "sha\x03"
// magic, the eight chaining words, the 64-byte block buffer and the
// message length, all big-endian.
const midstateLen = 4 + sha256.Size + sha256.BlockSize + 8

// midstate is a SHA-256 digest that has absorbed one HMAC pad block, and
// the state saved right after it.
type midstate struct {
	h     hash.Hash
	load  encoding.BinaryUnmarshaler
	store encoding.BinaryAppender
	saved [midstateLen]byte
}

// pbkdf2Kernel is one derivation's scratch, allocated once per PBKDF2
// call and dropped with it. Everything a digest reads or writes through
// its interface lives here, so nothing else escapes.
type pbkdf2Kernel struct {
	inner, outer midstate
	pad          [sha256.BlockSize]byte
	counter      [4]byte // INT(i), the output block index after the salt
	// block is the final padded block of every hash from round 2 on:
	// U‖0x80‖0…‖BE64(768 bits = pad block + U). U is overwritten in place.
	block [sha256.BlockSize]byte
	// sum receives AppendBinary's read-back of a compressed state.
	sum [midstateLen]byte
}

func newPBKDF2Kernel(password []byte) *pbkdf2Kernel {
	k := new(pbkdf2Kernel)
	key := password
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(k.pad[:], key)
	for i := range k.pad {
		k.pad[i] ^= 0x36
	}
	k.inner.key(k.pad[:])
	for i := range k.pad {
		k.pad[i] ^= 0x36 ^ 0x5c
	}
	k.outer.key(k.pad[:])
	k.block[sha256.Size] = 0x80
	binary.BigEndian.PutUint64(k.block[sha256.BlockSize-8:], 8*(sha256.BlockSize+sha256.Size))
	return k
}

// key hashes one pad block into a fresh digest and saves its midstate.
func (m *midstate) key(pad []byte) {
	d := sha256.New()
	m.h, m.load, m.store = d, d.(encoding.BinaryUnmarshaler), d.(encoding.BinaryAppender)
	m.h.Write(pad)
	st, err := m.store.AppendBinary(m.saved[:0])
	if err != nil || len(st) != midstateLen || string(st[:4]) != "sha\x03" {
		panic("security: unexpected sha256 state format")
	}
}

// restore rewinds the digest to the saved midstate. The state is one we
// marshalled ourselves, so failing to load it is a programming error.
func (m *midstate) restore() {
	if err := m.load.UnmarshalBinary(m.saved[:]); err != nil {
		panic(err)
	}
}

// compress computes one hash of a round: restore m's midstate, compress
// the pre-padded k.block in one Write, and read the chaining value —
// bytes [4:36] of the saved state, the big-endian digest — back over U.
func (k *pbkdf2Kernel) compress(m *midstate) {
	m.restore()
	m.h.Write(k.block[:])
	st, err := m.store.AppendBinary(k.sum[:0])
	if err != nil {
		panic(err)
	}
	copy(k.block[:sha256.Size], st[4:4+sha256.Size])
}

// DefaultIterations is the password-hash work factor.
const DefaultIterations = 4096

// maxIterations bounds the work factor VerifyPassword accepts from a
// stored record: the count is input, and an unbounded one lets a single
// forged record pin a core for minutes.
const maxIterations = 1 << 24

// HashPassword returns a self-describing "iterations$salt$hash" record.
func HashPassword(password string) (string, error) {
	salt := make([]byte, saltSize)
	if _, err := rand.Read(salt); err != nil {
		return "", fmt.Errorf("security: entropy: %w", err)
	}
	dk := PBKDF2([]byte(password), salt, DefaultIterations, sha256.Size)
	return fmt.Sprintf("%d$%s$%s", DefaultIterations,
		base64.RawStdEncoding.EncodeToString(salt),
		base64.RawStdEncoding.EncodeToString(dk)), nil
}

// VerifyPassword checks a password against a stored record in constant
// time with respect to the derived keys.
func VerifyPassword(password, record string) error {
	parts := strings.Split(record, "$")
	if len(parts) != 3 {
		return fmt.Errorf("%w: malformed record", ErrAuth)
	}
	iterations, err := strconv.Atoi(parts[0])
	if err != nil || iterations < 1 || iterations > maxIterations {
		return fmt.Errorf("%w: bad iteration count", ErrAuth)
	}
	salt, err := base64.RawStdEncoding.DecodeString(parts[1])
	if err != nil {
		return fmt.Errorf("%w: bad salt", ErrAuth)
	}
	// HashPassword writes exactly one 32-byte block. An empty hash would
	// compare equal to PBKDF2's nil for any password, and a long one
	// multiplies the maxIterations work bound by its block count.
	want, err := base64.RawStdEncoding.DecodeString(parts[2])
	if err != nil || len(want) != sha256.Size {
		return fmt.Errorf("%w: bad hash", ErrAuth)
	}
	got := PBKDF2([]byte(password), salt, iterations, len(want))
	if subtle.ConstantTimeCompare(got, want) != 1 {
		return ErrAuth
	}
	return nil
}

// PasswordPolicy is the strength check of the Figure 4 flow ("Strong?").
type PasswordPolicy struct {
	MinLength      int
	RequireUpper   bool
	RequireLower   bool
	RequireDigit   bool
	RequireSpecial bool
}

// DefaultPolicy mirrors the course assignment's rules.
var DefaultPolicy = PasswordPolicy{MinLength: 8, RequireUpper: true, RequireLower: true, RequireDigit: true}

// Check returns nil for conforming passwords and an explanatory error
// otherwise.
func (p PasswordPolicy) Check(password string) error {
	var problems []string
	if len(password) < p.MinLength {
		problems = append(problems, fmt.Sprintf("shorter than %d characters", p.MinLength))
	}
	var upper, lower, digit, special bool
	for _, r := range password {
		switch {
		case unicode.IsUpper(r):
			upper = true
		case unicode.IsLower(r):
			lower = true
		case unicode.IsDigit(r):
			digit = true
		default:
			special = true
		}
	}
	if p.RequireUpper && !upper {
		problems = append(problems, "no uppercase letter")
	}
	if p.RequireLower && !lower {
		problems = append(problems, "no lowercase letter")
	}
	if p.RequireDigit && !digit {
		problems = append(problems, "no digit")
	}
	if p.RequireSpecial && !special {
		problems = append(problems, "no special character")
	}
	if len(problems) > 0 {
		return fmt.Errorf("security: weak password: %s", strings.Join(problems, ", "))
	}
	return nil
}

// TokenService issues and verifies HMAC-signed bearer tokens with expiry.
type TokenService struct {
	key []byte
	now func() time.Time
}

// NewTokenService returns a token service; key must be ≥ 16 bytes.
func NewTokenService(key []byte, now func() time.Time) (*TokenService, error) {
	if len(key) < 16 {
		return nil, errors.New("security: token key must be at least 16 bytes")
	}
	if now == nil {
		now = time.Now
	}
	return &TokenService{key: append([]byte(nil), key...), now: now}, nil
}

type tokenClaims struct {
	Subject string   `json:"sub"`
	Roles   []string `json:"roles,omitempty"`
	Expires int64    `json:"exp"`
}

// Issue returns a signed token for subject valid for ttl.
func (t *TokenService) Issue(subject string, roles []string, ttl time.Duration) (string, error) {
	if subject == "" || ttl <= 0 {
		return "", fmt.Errorf("%w: invalid claims", ErrAuth)
	}
	payload, err := json.Marshal(tokenClaims{Subject: subject, Roles: roles, Expires: t.now().Add(ttl).Unix()})
	if err != nil {
		return "", err
	}
	mac := hmac.New(sha256.New, t.key)
	mac.Write(payload)
	return base64.RawURLEncoding.EncodeToString(payload) + "." +
		base64.RawURLEncoding.EncodeToString(mac.Sum(nil)), nil
}

// Verify checks signature and expiry and returns the subject and roles.
func (t *TokenService) Verify(token string) (subject string, roles []string, err error) {
	parts := strings.SplitN(token, ".", 2)
	if len(parts) != 2 {
		return "", nil, fmt.Errorf("%w: malformed token", ErrAuth)
	}
	payload, err := base64.RawURLEncoding.DecodeString(parts[0])
	if err != nil {
		return "", nil, fmt.Errorf("%w: bad payload", ErrAuth)
	}
	sig, err := base64.RawURLEncoding.DecodeString(parts[1])
	if err != nil {
		return "", nil, fmt.Errorf("%w: bad signature", ErrAuth)
	}
	mac := hmac.New(sha256.New, t.key)
	mac.Write(payload)
	if !hmac.Equal(sig, mac.Sum(nil)) {
		return "", nil, fmt.Errorf("%w: signature mismatch", ErrAuth)
	}
	var claims tokenClaims
	if err := json.Unmarshal(payload, &claims); err != nil {
		return "", nil, fmt.Errorf("%w: bad claims", ErrAuth)
	}
	if t.now().Unix() >= claims.Expires {
		return "", nil, fmt.Errorf("%w: token expired", ErrAuth)
	}
	return claims.Subject, claims.Roles, nil
}

// RBAC is a role-based access-control policy: roles grant permissions,
// users hold roles. Permissions are "resource:action" strings; a trailing
// "*" in either part is a wildcard.
type RBAC struct {
	mu    sync.RWMutex
	roles map[string]map[string]bool // role → permissions
	users map[string]map[string]bool // user → roles
}

// NewRBAC returns an empty policy.
func NewRBAC() *RBAC {
	return &RBAC{roles: map[string]map[string]bool{}, users: map[string]map[string]bool{}}
}

// GrantRole adds permissions to a role.
func (r *RBAC) GrantRole(role string, permissions ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.roles[role] == nil {
		r.roles[role] = map[string]bool{}
	}
	for _, p := range permissions {
		r.roles[role][p] = true
	}
}

// AssignRole gives a user a role.
func (r *RBAC) AssignRole(user, role string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.users[user] == nil {
		r.users[user] = map[string]bool{}
	}
	r.users[user][role] = true
}

// RevokeRole removes a role from a user.
func (r *RBAC) RevokeRole(user, role string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.users[user], role)
}

// Roles returns a user's sorted roles.
func (r *RBAC) Roles(user string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Sorted(maps.Keys(r.users[user]))
}

// Check returns nil when user may perform permission ("resource:action").
func (r *RBAC) Check(user, permission string) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for role := range r.users[user] {
		for p := range r.roles[role] {
			if permissionMatches(p, permission) {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: %s lacks %s", ErrDenied, user, permission)
}

func permissionMatches(granted, requested string) bool {
	if granted == requested || granted == "*" || granted == "*:*" {
		return true
	}
	gp := strings.SplitN(granted, ":", 2)
	rp := strings.SplitN(requested, ":", 2)
	if len(gp) != 2 || len(rp) != 2 {
		return false
	}
	resOK := gp[0] == rp[0] || gp[0] == "*"
	actOK := gp[1] == rp[1] || gp[1] == "*"
	return resOK && actOK
}

// Layout of an Encrypt blob: salt‖nonce‖ciphertext‖tag, with the
// standard GCM nonce and tag sizes.
const (
	saltSize  = 16
	nonceSize = 12
	tagSize   = 16
)

func newGCM(passphrase string, salt []byte) (cipher.AEAD, error) {
	key := PBKDF2([]byte(passphrase), salt, DefaultIterations, 32)
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Encrypt seals plaintext with AES-256-GCM under a key derived from the
// passphrase; output is base64(salt‖nonce‖ciphertext).
func Encrypt(passphrase string, plaintext []byte) (string, error) {
	// One buffer sized for the whole blob: salt and nonce are drawn in
	// place and gcm.Seal appends the ciphertext behind them.
	blob := make([]byte, saltSize+nonceSize, saltSize+nonceSize+len(plaintext)+tagSize)
	if _, err := rand.Read(blob); err != nil {
		return "", err
	}
	gcm, err := newGCM(passphrase, blob[:saltSize])
	if err != nil {
		return "", err
	}
	blob = gcm.Seal(blob, blob[saltSize:], plaintext, nil)
	return base64.StdEncoding.EncodeToString(blob), nil
}

// Decrypt reverses Encrypt; a wrong passphrase or corrupted blob yields
// ErrAuth.
func Decrypt(passphrase, encoded string) ([]byte, error) {
	blob, err := base64.StdEncoding.DecodeString(encoded)
	if err != nil {
		return nil, fmt.Errorf("%w: bad encoding", ErrAuth)
	}
	if len(blob) < saltSize+nonceSize+tagSize {
		return nil, fmt.Errorf("%w: blob too short", ErrAuth)
	}
	gcm, err := newGCM(passphrase, blob[:saltSize])
	if err != nil {
		return nil, err
	}
	nonce, ct := blob[saltSize:saltSize+nonceSize], blob[saltSize+nonceSize:]
	plain, err := gcm.Open(nil, nonce, ct, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: decryption failed", ErrAuth)
	}
	return plain, nil
}

// RandomString returns n characters drawn uniformly from alphabet (the
// repository's "random string / strong password generation service").
func RandomString(n int, alphabet string) (string, error) {
	if n <= 0 || len(alphabet) == 0 || len(alphabet) > 256 {
		return "", fmt.Errorf("security: bad random string spec n=%d alphabet=%d", n, len(alphabet))
	}
	out := make([]byte, n)
	// Rejection sampling for uniformity.
	limit := 256 - (256 % len(alphabet))
	buf := make([]byte, 1)
	for i := 0; i < n; {
		if _, err := rand.Read(buf); err != nil {
			return "", err
		}
		if int(buf[0]) >= limit {
			continue
		}
		out[i] = alphabet[int(buf[0])%len(alphabet)]
		i++
	}
	return string(out), nil
}

// Alphabets for RandomString.
const (
	AlphabetAlnum    = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	AlphabetPassword = AlphabetAlnum + "!@#$%^&*-_=+"
)

// AuditLog records security-relevant events with bounded memory.
type AuditLog struct {
	mu     sync.Mutex
	max    int
	events []AuditEvent
	now    func() time.Time
}

// AuditEvent is one audit record.
type AuditEvent struct {
	Time    time.Time
	Actor   string
	Action  string
	Target  string
	Allowed bool
}

// NewAuditLog returns a log keeping at most max events (oldest dropped).
func NewAuditLog(max int, now func() time.Time) *AuditLog {
	if max <= 0 {
		max = 1024
	}
	if now == nil {
		now = time.Now
	}
	return &AuditLog{max: max, now: now}
}

// Record appends an event.
func (l *AuditLog) Record(actor, action, target string, allowed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, AuditEvent{Time: l.now(), Actor: actor, Action: action, Target: target, Allowed: allowed})
	if len(l.events) > l.max {
		l.events = l.events[len(l.events)-l.max:]
	}
}

// Events returns a snapshot of the retained events.
func (l *AuditLog) Events() []AuditEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AuditEvent(nil), l.events...)
}

// Denials counts recorded denials.
func (l *AuditLog) Denials() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if !e.Allowed {
			n++
		}
	}
	return n
}
