// Package security implements the dependability-security mechanisms of
// CSE445 unit 6 ("designs and implements the security mechanisms that
// safeguard the Web applications"): salted iterated password hashing
// (PBKDF2-HMAC-SHA256, implemented from the RFC against the stdlib
// primitives), role-based access control, password strength policy (the Figure 4 "Strong?" check), AES-GCM
// payload encryption for the repository's encryption service, and an
// audit log.
package security

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/pbkdf2"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"soc/internal/vtime"
)

// ErrAuth reports failed authentication or verification.
var ErrAuth = errors.New("security: authentication failed")

// ErrDenied reports an authorization denial.
var ErrDenied = errors.New("security: access denied")

// PBKDF2 derives a key from password and salt using HMAC-SHA256 with the
// given iteration count (RFC 2898 §5.2).
//
// The HMAC is built here from RFC 2104's pads: each pad block is hashed
// once per derivation and its SHA-256 midstate, the eight chaining
// words, saved. U₁ of each output block is an ordinary HMAC from those
// midstates (the salt is any length). From U₂ on, the inner and the
// outer message are both one 32-byte value after one pad block, so
// their last block is always U‖0x80‖0…‖BE64(768): a round sets the
// digest's chaining words to a midstate, compresses that one block in
// one Write and reads the words back as the digest, twice, then XORs.
// The words are reached through digestState, a view of the stdlib
// digest whose layout is proved once at init; where the proof fails
// (another toolchain, boringcrypto) PBKDF2 is crypto/pbkdf2.Key. Three
// allocations per call on the direct path (the scratch kernel, its
// digest and the output), none per round. Nothing outlives the call: a
// cache of keys or midstates would keep key-equivalent secrets alive.
func PBKDF2(password, salt []byte, iterations, keyLen int) []byte {
	if iterations < 1 || keyLen < 1 {
		return nil
	}
	if !digestView {
		// The stdlib refuses only what this package never asks for (a
		// key past 2³²−1 blocks, FIPS-only mode's minimums); nil makes
		// every caller fail closed.
		dk, err := pbkdf2.Key(sha256.New, string(password), salt, iterations, keyLen)
		if err != nil {
			return nil
		}
		return dk
	}
	const hashLen = sha256.Size
	blocks := (keyLen + hashLen - 1) / hashLen
	out := make([]byte, blocks*hashLen)
	k := newPBKDF2Kernel(password)
	u := k.block[:hashLen]
	for i := 1; i <= blocks; i++ {
		binary.BigEndian.PutUint32(k.counter[:], uint32(i))
		k.restore(&k.inner)
		k.d.Write(salt)
		k.d.Write(k.counter[:])
		k.d.Sum(u[:0])
		k.restore(&k.outer)
		k.d.Write(u)
		k.d.Sum(u[:0])
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

// digestState mirrors the stdlib SHA-256 digest's fields
// (crypto/internal/fips140/sha256.Digest as of go1.24): the chaining
// words, the partial-block buffer and its fill, the message length and
// the SHA-224 flag. PBKDF2 touches h, nx and len only, and only through
// a digest whose layout digestLayoutMatches has checked field by field.
type digestState struct {
	h     [8]uint32
	x     [sha256.BlockSize]byte
	nx    int
	len   uint64
	is224 bool
}

// digestView records, once per process, whether sha256.New's digest has
// digestState's layout. Tests clear it to run the crypto/pbkdf2 fallback.
var digestView = digestLayoutMatches(reflect.TypeOf(sha256.New()))

// digestLayoutMatches reports whether t is a pointer to a struct with
// exactly digestState's fields: the same names in the same order, at
// the same offsets, of the same kinds and sizes (array element kinds and
// lengths included), in a struct of the same size.
func digestLayoutMatches(t reflect.Type) bool {
	if t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		return false
	}
	got, want := t.Elem(), reflect.TypeFor[digestState]()
	if got.Size() != want.Size() || got.NumField() != want.NumField() {
		return false
	}
	for i := range want.NumField() {
		g, w := got.Field(i), want.Field(i)
		if g.Name != w.Name || g.Offset != w.Offset ||
			g.Type.Kind() != w.Type.Kind() || g.Type.Size() != w.Type.Size() {
			return false
		}
		if w.Type.Kind() == reflect.Array &&
			(g.Type.Len() != w.Type.Len() || g.Type.Elem().Kind() != w.Type.Elem().Kind()) {
			return false
		}
	}
	return true
}

// pbkdf2Kernel is one derivation's scratch, allocated once per PBKDF2
// call and dropped with it: one digest, seen twice (as a hash.Hash to
// Write and Sum through, as a digestState to set and read its chaining
// words), and the two saved midstates.
type pbkdf2Kernel struct {
	d            hash.Hash
	state        *digestState
	inner, outer [8]uint32
	pad          [sha256.BlockSize]byte
	counter      [4]byte // INT(i), the output block index after the salt
	// block is the final padded block of every hash from round 2 on:
	// U‖0x80‖0…‖BE64(768 bits = pad block + U). U is overwritten in place.
	block [sha256.BlockSize]byte
}

func newPBKDF2Kernel(password []byte) *pbkdf2Kernel {
	k := new(pbkdf2Kernel)
	k.d = sha256.New()
	//soclint:ignore unsafeimport digestLayoutMatches proved at init that this digest has digestState's layout; PBKDF2 takes this path only then
	k.state = (*digestState)(reflect.ValueOf(k.d).UnsafePointer())
	key := password
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(k.pad[:], key)
	for i := range k.pad {
		k.pad[i] ^= 0x36
	}
	k.key(&k.inner)
	for i := range k.pad {
		k.pad[i] ^= 0x36 ^ 0x5c
	}
	k.key(&k.outer)
	k.block[sha256.Size] = 0x80
	binary.BigEndian.PutUint64(k.block[sha256.BlockSize-8:], 8*(sha256.BlockSize+sha256.Size))
	return k
}

// key hashes k.pad from the initial state and saves the chaining words
// in m.
func (k *pbkdf2Kernel) key(m *[8]uint32) {
	k.d.Reset()
	k.d.Write(k.pad[:])
	*m = k.state.h
}

// restore rewinds the digest to midstate m: one pad block absorbed,
// nothing buffered.
func (k *pbkdf2Kernel) restore(m *[8]uint32) {
	k.state.h = *m
	k.state.nx = 0
	k.state.len = sha256.BlockSize
}

// compress computes one hash of a round: restore midstate m, compress
// the pre-padded k.block in one Write, and write the chaining words —
// the digest, big-endian — back over U.
func (k *pbkdf2Kernel) compress(m *[8]uint32) {
	k.restore(m)
	k.d.Write(k.block[:])
	for i, w := range k.state.h {
		binary.BigEndian.PutUint32(k.block[4*i:], w)
	}
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
	if utf8.RuneCountInString(password) < p.MinLength {
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
	return randomString(nil, n, alphabet)
}

// randomString is RandomString drawing its bytes from src, or from
// crypto/rand when src is nil. It draws all n bytes at once into the
// output, then re-draws only the positions that rejection sampling
// turned down. Up to 64 characters the output buffer stays on the
// stack, so the returned string is the one allocation.
func randomString(src io.Reader, n int, alphabet string) (string, error) {
	if n <= 0 || len(alphabet) == 0 || len(alphabet) > 256 {
		return "", fmt.Errorf("security: bad random string spec n=%d alphabet=%d", n, len(alphabet))
	}
	var stack [64]byte
	out := stack[:]
	if n > len(stack) {
		out = make([]byte, n)
	}
	out = out[:n]
	if err := drawRandom(src, out); err != nil {
		return "", err
	}
	// Rejection sampling for uniformity: a byte at or past limit would
	// favour the alphabet's first 256 % len(alphabet) characters.
	limit := 256 - (256 % len(alphabet))
	for i := range out {
		for int(out[i]) >= limit {
			if err := drawRandom(src, out[i:i+1]); err != nil {
				return "", err
			}
		}
		out[i] = alphabet[int(out[i])%len(alphabet)]
	}
	return string(out), nil
}

// drawRandom fills b from src, or from crypto/rand when src is nil.
// A non-nil src reads into a copy, so b never escapes through the
// interface call and a caller's stack buffer stays on the stack.
func drawRandom(src io.Reader, b []byte) error {
	if src == nil {
		_, err := rand.Read(b)
		return err
	}
	tmp := make([]byte, len(b))
	if _, err := io.ReadFull(src, tmp); err != nil {
		return fmt.Errorf("security: entropy: %w", err)
	}
	copy(b, tmp)
	return nil
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
func NewAuditLog(max int) *AuditLog {
	if max <= 0 {
		max = 1024
	}
	return &AuditLog{max: max}
}

// Record appends an event stamped with ctx's clock.
func (l *AuditLog) Record(ctx context.Context, actor, action, target string, allowed bool) {
	now := vtime.Now(ctx)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, AuditEvent{Time: now, Actor: actor, Action: action, Target: target, Allowed: allowed})
	if len(l.events) > l.max {
		l.events = l.events[len(l.events)-l.max:]
	}
}

// Denials counts recorded denials.
//
//soclint:ignore unreached ROADMAP 30(d): nothing but tests reads the audit trail; an operator view of it, or its deletion, is queued there
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
