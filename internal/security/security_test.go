package security

import (
	"bytes"
	"crypto/hmac"
	"crypto/pbkdf2"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPBKDF2KnownVectors(t *testing.T) {
	// RFC 7914 / common PBKDF2-HMAC-SHA256 test vectors.
	cases := []struct {
		password, salt string
		iterations     int
		keyLen         int
		wantHex        string
	}{
		{"passwd", "salt", 1, 64,
			"55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc49ca9cccf179b645991664b39d77ef317c71b845b1e30bd509112041d3a19783"},
		{"Password", "NaCl", 80000, 64,
			"4ddcd8f60b98be21830cee5ef22701f9641a4418d04c0414aeff08876b34ab56a1d425a1225833549adb841b51c9b3176a272bdebba1d078478f62b397f33c8d"},
	}
	for _, c := range cases {
		got := PBKDF2([]byte(c.password), []byte(c.salt), c.iterations, c.keyLen)
		if hex.EncodeToString(got) != c.wantHex {
			t.Errorf("PBKDF2(%q,%q,%d) = %x", c.password, c.salt, c.iterations, got)
		}
	}
}

// pbkdf2Reference is the kernel this package shipped before PBKDF2 keyed
// its HMAC once per derivation: a fresh hmac.New on every iteration,
// straight from RFC 2898 §5.2. It stays as the oracle the fast kernel is
// checked against.
func pbkdf2Reference(password, salt []byte, iterations, keyLen int) []byte {
	hashLen := sha256.Size
	blocks := (keyLen + hashLen - 1) / hashLen
	out := make([]byte, 0, blocks*hashLen)
	var block [4]byte
	for i := 1; i <= blocks; i++ {
		binary.BigEndian.PutUint32(block[:], uint32(i))
		mac := hmac.New(sha256.New, password)
		mac.Write(salt)
		mac.Write(block[:])
		u := mac.Sum(nil)
		t := append([]byte(nil), u...)
		for n := 1; n < iterations; n++ {
			mac = hmac.New(sha256.New, password)
			mac.Write(u)
			u = mac.Sum(nil)
			for x := range t {
				t[x] ^= u[x]
			}
		}
		out = append(out, t...)
	}
	return out[:keyLen]
}

// pbkdf2Stdlib is the second oracle: Go's own crypto/pbkdf2.
func pbkdf2Stdlib(password, salt []byte, iterations, keyLen int) []byte {
	dk, err := pbkdf2.Key(sha256.New, string(password), salt, iterations, keyLen)
	if err != nil {
		panic(err)
	}
	return dk
}

// TestPBKDF2MatchesReference is the differential property: over
// passwords on both sides of the 64-byte block (past it HMAC hashes the
// key first, which the kernel now does itself), empty and long salts,
// and key lengths that need several blocks and a partial last one, the
// kernel is byte-identical to both the reference and crypto/pbkdf2.
func TestPBKDF2MatchesReference(t *testing.T) {
	oracles := []struct {
		name   string
		derive func(password, salt []byte, iterations, keyLen int) []byte
	}{{"reference", pbkdf2Reference}, {"crypto/pbkdf2", pbkdf2Stdlib}}
	check := func(password, salt []byte, iterations, n int) bool {
		got := PBKDF2(password, salt, iterations, n)
		ok := true
		for _, o := range oracles {
			if want := o.derive(password, salt, iterations, n); !bytes.Equal(got, want) {
				t.Errorf("PBKDF2(pw %d B, salt %d B, %d iterations, %d B) = %x, %s %x",
					len(password), len(salt), iterations, n, got, o.name, want)
				ok = false
			}
		}
		return ok
	}
	prop := func(seed []byte, pwLen, saltLen, iters, keyLen uint8) bool {
		fill := func(n int, tweak byte) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = tweak + byte(i)
				if len(seed) > 0 {
					b[i] ^= seed[i%len(seed)]
				}
			}
			return b
		}
		password := fill(int(pwLen)%201, 0x5c)
		salt := fill(int(saltLen)%101, 0x36)
		iterations := int(iters)%50 + 1
		n := int(keyLen)%100 + 1
		return check(password, salt, iterations, n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// The edges quick may not draw: passwords of exactly one block and
	// one byte past it (the shortest key RFC 2104 hashes first), three
	// output blocks with a partial last one, and the production count.
	for _, c := range []struct{ pw, salt, iters, keyLen int }{
		{0, 0, 1, 1}, {63, 0, 2, 32}, {64, 16, 3, 33}, {65, 100, 50, 100}, {200, 1, 1, 64},
		{64, 16, 2, 80}, {65, 16, 2, 80}, {64, 16, DefaultIterations, 32}, {65, 16, DefaultIterations, 80},
	} {
		pw, salt := bytes.Repeat([]byte{0xa5}, c.pw), bytes.Repeat([]byte{0x3c}, c.salt)
		check(pw, salt, c.iters, c.keyLen)
	}
}

// TestSeedGoldens pins compatibility with data at rest: both values were
// produced by the per-iteration-hmac.New kernel and must keep working.
func TestSeedGoldens(t *testing.T) {
	const (
		sealed = "QGj32GBCsccnuCtGWyPhQwjbCqEDIPmh97wD2Ts7wo1jmyEjYo5ZbHBmlepqTtphlDsksp1pq4Ne4QDl1LCjFIY1xaQimgFuwF3TgmS9b0bSje+uIivJ"
		record = "4096$VppxZKdARdKHRBfCHPbNBQ$gU6105A8jHAuO8wS5lyNoWBfpZS0Bw74PLrZKjvO9ms"
	)
	plain, err := Decrypt("seed-passphrase", sealed)
	if err != nil || string(plain) != "sealed by the per-iteration hmac.New kernel" {
		t.Errorf("Decrypt(seed ciphertext) = %q, %v", plain, err)
	}
	if err := VerifyPassword("s3cret-Pass", record); err != nil {
		t.Errorf("VerifyPassword(seed record): %v", err)
	}
}

func TestPBKDF2BadInputs(t *testing.T) {
	if PBKDF2([]byte("p"), []byte("s"), 0, 32) != nil {
		t.Error("zero iterations accepted")
	}
	if PBKDF2([]byte("p"), []byte("s"), 1, 0) != nil {
		t.Error("zero keyLen accepted")
	}
}

func TestHashVerifyPassword(t *testing.T) {
	rec, err := HashPassword("s3cret-Pass")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPassword("s3cret-Pass", rec); err != nil {
		t.Errorf("correct password rejected: %v", err)
	}
	if err := VerifyPassword("wrong", rec); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong password: %v", err)
	}
	// Distinct salts.
	rec2, _ := HashPassword("s3cret-Pass")
	if rec == rec2 {
		t.Error("same salt reused")
	}
	tail := rec[strings.Index(rec, "$"):]
	head := rec[:strings.LastIndex(rec, "$")+1]
	hashOf := func(n int) string { return head + base64.RawStdEncoding.EncodeToString(make([]byte, n)) }
	for _, bad := range []string{"", "a$b", "x$!$!", "0$AA$AA",
		"4096junk" + tail,   // trailing garbage after a valid count
		"16777217" + tail,   // one past maxIterations
		"2000000000" + tail, // minutes of one core if derived
		"99999999999999999999" + tail,
		head,            // empty hash: PBKDF2 of 0 bytes is nil, which equals it
		hashOf(31),      // not the one length HashPassword writes
		hashOf(33),      // a second block's worth of work
		hashOf(4 << 10), // 128 blocks: 128× the maxIterations bound
	} {
		if err := VerifyPassword("p", bad); !errors.Is(err, ErrAuth) {
			t.Errorf("VerifyPassword(%q): %v", bad, err)
		}
	}
}

func TestPasswordPolicy(t *testing.T) {
	p := DefaultPolicy
	if err := p.Check("Str0ngpass"); err != nil {
		t.Errorf("strong password rejected: %v", err)
	}
	weak := map[string]string{
		"short":        "Ab1",
		"no uppercase": "alllower1",
		"no lowercase": "ALLUPPER1",
		"no digit":     "NoDigitsHere",
	}
	for why, pw := range weak {
		if err := p.Check(pw); err == nil {
			t.Errorf("weak password (%s) accepted: %q", why, pw)
		}
	}
	strict := PasswordPolicy{MinLength: 4, RequireSpecial: true}
	if err := strict.Check("ab1!"); err != nil {
		t.Errorf("special present but rejected: %v", err)
	}
	if err := strict.Check("abcd"); err == nil {
		t.Error("missing special accepted")
	}
}

func TestTokenServiceRoundTrip(t *testing.T) {
	now := time.Unix(1000, 0)
	ts, err := NewTokenService([]byte("0123456789abcdef"), func() time.Time { return now })
	if err != nil {
		t.Fatal(err)
	}
	tok, err := ts.Issue("alice", []string{"admin", "user"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sub, roles, err := ts.Verify(tok)
	if err != nil || sub != "alice" || len(roles) != 2 {
		t.Errorf("verify = %q %v %v", sub, roles, err)
	}
	now = now.Add(2 * time.Hour)
	if _, _, err := ts.Verify(tok); !errors.Is(err, ErrAuth) {
		t.Errorf("expired token: %v", err)
	}
}

func TestTokenServiceRejections(t *testing.T) {
	ts, _ := NewTokenService([]byte("0123456789abcdef"), nil)
	if _, err := ts.Issue("", nil, time.Hour); err == nil {
		t.Error("empty subject accepted")
	}
	if _, err := ts.Issue("x", nil, 0); err == nil {
		t.Error("zero ttl accepted")
	}
	tok, _ := ts.Issue("bob", nil, time.Hour)
	other, _ := NewTokenService([]byte("fedcba9876543210"), nil)
	if _, _, err := other.Verify(tok); !errors.Is(err, ErrAuth) {
		t.Errorf("cross-key verify: %v", err)
	}
	for _, bad := range []string{"", "x", "a.b", "!!.!!"} {
		if _, _, err := ts.Verify(bad); !errors.Is(err, ErrAuth) {
			t.Errorf("Verify(%q): %v", bad, err)
		}
	}
	if _, err := NewTokenService([]byte("short"), nil); err == nil {
		t.Error("short key accepted")
	}
}

func TestRBAC(t *testing.T) {
	r := NewRBAC()
	r.GrantRole("admin", "*:*")
	r.GrantRole("analyst", "reports:read", "reports:list")
	r.GrantRole("operator", "services:*")
	r.AssignRole("root", "admin")
	r.AssignRole("ana", "analyst")
	r.AssignRole("ops", "operator")

	cases := []struct {
		user, perm string
		allow      bool
	}{
		{"root", "anything:whatever", true},
		{"ana", "reports:read", true},
		{"ana", "reports:write", false},
		{"ana", "services:read", false},
		{"ops", "services:restart", true},
		{"ops", "reports:read", false},
		{"nobody", "reports:read", false},
	}
	for _, c := range cases {
		err := r.Check(c.user, c.perm)
		if c.allow && err != nil {
			t.Errorf("%s %s denied: %v", c.user, c.perm, err)
		}
		if !c.allow && !errors.Is(err, ErrDenied) {
			t.Errorf("%s %s: %v", c.user, c.perm, err)
		}
	}
	if roles := r.Roles("ana"); len(roles) != 1 || roles[0] != "analyst" {
		t.Errorf("roles = %v", roles)
	}
	r.RevokeRole("ana", "analyst")
	if err := r.Check("ana", "reports:read"); err == nil {
		t.Error("revoked role still grants")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	plain := []byte("attack at dawn — service-oriented edition")
	sealed, err := Encrypt("passphrase", plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt("passphrase", sealed)
	if err != nil || !bytes.Equal(got, plain) {
		t.Errorf("decrypt = %q %v", got, err)
	}
	if _, err := Decrypt("wrong", sealed); !errors.Is(err, ErrAuth) {
		t.Errorf("wrong passphrase: %v", err)
	}
	if _, err := Decrypt("p", "!!!not-base64"); !errors.Is(err, ErrAuth) {
		t.Errorf("bad encoding: %v", err)
	}
	if _, err := Decrypt("p", "aGk"); !errors.Is(err, ErrAuth) {
		t.Errorf("short blob: %v", err)
	}
	// Nondeterministic sealing (fresh salt+nonce).
	sealed2, _ := Encrypt("passphrase", plain)
	if sealed == sealed2 {
		t.Error("identical ciphertexts for identical plaintexts")
	}
}

func TestEncryptRoundTripProperty(t *testing.T) {
	prop := func(data []byte, pass string) bool {
		if pass == "" {
			pass = "x"
		}
		sealed, err := Encrypt(pass, data)
		if err != nil {
			return false
		}
		got, err := Decrypt(pass, sealed)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestRandomString(t *testing.T) {
	s, err := RandomString(32, AlphabetAlnum)
	if err != nil || len(s) != 32 {
		t.Fatalf("RandomString: %q %v", s, err)
	}
	for _, r := range s {
		if !strings.ContainsRune(AlphabetAlnum, r) {
			t.Errorf("character %q outside alphabet", r)
		}
	}
	s2, _ := RandomString(32, AlphabetAlnum)
	if s == s2 {
		t.Error("two random strings identical")
	}
	if _, err := RandomString(0, AlphabetAlnum); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := RandomString(5, ""); err == nil {
		t.Error("empty alphabet accepted")
	}
}

func TestAuditLog(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewAuditLog(3, func() time.Time { return now })
	l.Record("alice", "read", "reports", true)
	l.Record("bob", "write", "reports", false)
	l.Record("eve", "read", "secrets", false)
	l.Record("mallory", "delete", "all", false) // evicts alice's event
	events := l.Events()
	if len(events) != 3 || events[0].Actor != "bob" {
		t.Errorf("events = %+v", events)
	}
	if l.Denials() != 3 {
		t.Errorf("denials = %d", l.Denials())
	}
}
