package services

import (
	"context"
	"encoding/base64"
	"errors"
	"strings"
	"testing"

	"soc/internal/core"
	"soc/internal/xmlstore"
)

var ctx = context.Background()

func TestEncryptionService(t *testing.T) {
	svc, err := NewEncryption()
	if err != nil {
		t.Fatal(err)
	}
	out, err := svc.Invoke(ctx, "Encrypt", core.Values{"passphrase": "k", "plaintext": "hello soc"})
	if err != nil {
		t.Fatal(err)
	}
	ct := out.Str("ciphertext")
	if ct == "" || ct == "hello soc" {
		t.Fatalf("ciphertext = %q", ct)
	}
	back, err := svc.Invoke(ctx, "Decrypt", core.Values{"passphrase": "k", "ciphertext": ct})
	if err != nil || back.Str("plaintext") != "hello soc" {
		t.Errorf("decrypt: %v %v", back, err)
	}
	if _, err := svc.Invoke(ctx, "Decrypt", core.Values{"passphrase": "wrong", "ciphertext": ct}); err == nil {
		t.Error("wrong passphrase accepted")
	}
	if _, err := svc.Invoke(ctx, "Encrypt", core.Values{"passphrase": "", "plaintext": "x"}); err == nil {
		t.Error("empty passphrase accepted")
	}
}

func TestRandomStringService(t *testing.T) {
	svc, err := NewRandomString()
	if err != nil {
		t.Fatal(err)
	}
	out, err := svc.Invoke(ctx, "Generate", core.Values{"length": 16})
	if err != nil || len(out.Str("value")) != 16 {
		t.Errorf("Generate: %v %v", out, err)
	}
	if _, err := svc.Invoke(ctx, "Generate", core.Values{"length": 0}); err == nil {
		t.Error("length 0 accepted")
	}
	pw, err := svc.Invoke(ctx, "StrongPassword", core.Values{"length": 12})
	if err != nil {
		t.Fatal(err)
	}
	check, err := svc.Invoke(ctx, "CheckStrength", core.Values{"password": pw.Str("password")})
	if err != nil || !check.Bool("strong") {
		t.Errorf("generated password weak: %v %v", check, err)
	}
	weak, err := svc.Invoke(ctx, "CheckStrength", core.Values{"password": "abc"})
	if err != nil || weak.Bool("strong") || weak.Str("reason") == "" {
		t.Errorf("weak check: %v %v", weak, err)
	}
	if _, err := svc.Invoke(ctx, "StrongPassword", core.Values{"length": 4}); err == nil {
		t.Error("too-short strong password accepted")
	}
}

func TestAccessControlService(t *testing.T) {
	cat, err := NewCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := findService(t, cat, "AccessControl")
	// instructor has admin (seeded).
	out, err := svc.Invoke(ctx, "Check", core.Values{"user": "instructor", "permission": "grades:write"})
	if err != nil || !out.Bool("allowed") {
		t.Errorf("instructor: %v %v", out, err)
	}
	out, err = svc.Invoke(ctx, "Check", core.Values{"user": "randomkid", "permission": "grades:write"})
	if err != nil || out.Bool("allowed") || out.Str("reason") == "" {
		t.Errorf("denied: %v %v", out, err)
	}
	if _, err := svc.Invoke(ctx, "AssignRole", core.Values{"user": "randomkid", "role": "student"}); err != nil {
		t.Fatal(err)
	}
	out, _ = svc.Invoke(ctx, "Check", core.Values{"user": "randomkid", "permission": "services:invoke"})
	if !out.Bool("allowed") {
		t.Error("assigned role not effective")
	}
	if _, err := svc.Invoke(ctx, "AssignRole", core.Values{"user": "", "role": ""}); err == nil {
		t.Error("empty assignment accepted")
	}
}

func TestGuessingGameService(t *testing.T) {
	svc, err := NewGuessingGame(NewGuessingGames())
	if err != nil {
		t.Fatal(err)
	}
	out, err := svc.Invoke(ctx, "NewGame", core.Values{"low": 1, "high": 100, "seed": 7})
	if err != nil {
		t.Fatal(err)
	}
	game := out.Int("game")
	// Binary search must find the secret within 7 guesses.
	lo, hi := int64(1), int64(100)
	var attempts int64
	for i := 0; i < 8; i++ {
		mid := (lo + hi) / 2
		res, err := svc.Invoke(ctx, "Guess", core.Values{"game": game, "guess": mid})
		if err != nil {
			t.Fatal(err)
		}
		attempts = res.Int("attempts")
		switch res.Str("hint") {
		case "correct":
			if !res.Bool("done") {
				t.Error("correct but not done")
			}
			if attempts > 7 {
				t.Errorf("binary search took %d attempts", attempts)
			}
			// Finished game rejects further guesses.
			if _, err := svc.Invoke(ctx, "Guess", core.Values{"game": game, "guess": mid}); err == nil {
				t.Error("finished game accepted a guess")
			}
			return
		case "higher":
			lo = mid + 1
		case "lower":
			hi = mid - 1
		}
	}
	t.Fatalf("binary search failed after %d attempts", attempts)
}

func TestGuessingGameValidation(t *testing.T) {
	svc, _ := NewGuessingGame(NewGuessingGames())
	if _, err := svc.Invoke(ctx, "NewGame", core.Values{"low": 5, "high": 5}); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := svc.Invoke(ctx, "Guess", core.Values{"game": 99, "guess": 1}); err == nil {
		t.Error("missing game accepted")
	}
	out, _ := svc.Invoke(ctx, "NewGame", core.Values{"low": 1, "high": 10})
	if _, err := svc.Invoke(ctx, "Guess", core.Values{"game": out.Int("game"), "guess": 11}); err == nil {
		t.Error("out-of-range guess accepted")
	}
}

func TestDynamicImageService(t *testing.T) {
	svc, err := NewDynamicImage()
	if err != nil {
		t.Fatal(err)
	}
	out, err := svc.Invoke(ctx, "BarChart", core.Values{
		"title":  "Enrollment",
		"labels": "2006,2010,2013",
		"values": "39,76,134",
	})
	if err != nil {
		t.Fatal(err)
	}
	png, err := base64.StdEncoding.DecodeString(out.Str("png"))
	if err != nil || len(png) < 8 || string(png[1:4]) != "PNG" {
		t.Errorf("not a png: %v len=%d", err, len(png))
	}
	if _, err := svc.Invoke(ctx, "BarChart", core.Values{
		"title": "bad", "labels": "a,b", "values": "1",
	}); err == nil {
		t.Error("mismatched labels/values accepted")
	}
	if _, err := svc.Invoke(ctx, "BarChart", core.Values{
		"title": "bad", "labels": "a", "values": "xyz",
	}); err == nil {
		t.Error("non-numeric value accepted")
	}
}

func TestImageVerifierService(t *testing.T) {
	store := NewChallenges()
	svc, err := NewImageVerifier(store)
	if err != nil {
		t.Fatal(err)
	}
	out, err := svc.Invoke(ctx, "NewChallenge", core.Values{"length": 6})
	if err != nil {
		t.Fatal(err)
	}
	id := out.Int("challenge")
	if _, err := base64.StdEncoding.DecodeString(out.Str("png")); err != nil {
		t.Errorf("bad png encoding: %v", err)
	}
	// Peek at the answer (white-box) to verify the positive path.
	store.mu.Lock()
	answer := store.answers[id]
	store.mu.Unlock()
	res, err := svc.Invoke(ctx, "Verify", core.Values{"challenge": id, "answer": strings.ToLower(answer)})
	if err != nil || !res.Bool("ok") {
		t.Errorf("correct answer rejected: %v %v", res, err)
	}
	// One-shot: second verify fails.
	if _, err := svc.Invoke(ctx, "Verify", core.Values{"challenge": id, "answer": answer}); err == nil {
		t.Error("challenge verified twice")
	}
	// Wrong answer path.
	out2, _ := svc.Invoke(ctx, "NewChallenge", core.Values{})
	res2, err := svc.Invoke(ctx, "Verify", core.Values{"challenge": out2.Int("challenge"), "answer": "nope"})
	if err != nil || res2.Bool("ok") {
		t.Errorf("wrong answer accepted: %v %v", res2, err)
	}
	if _, err := svc.Invoke(ctx, "NewChallenge", core.Values{"length": 50}); err == nil {
		t.Error("huge challenge accepted")
	}
}

func TestCachingService(t *testing.T) {
	cat, err := NewCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc := findService(t, cat, "Caching")
	if _, err := svc.Invoke(ctx, "Put", core.Values{"key": "k", "value": "v", "dependency": "grp"}); err != nil {
		t.Fatal(err)
	}
	out, err := svc.Invoke(ctx, "Get", core.Values{"key": "k"})
	if err != nil || !out.Bool("found") || out.Str("value") != "v" {
		t.Errorf("Get: %v %v", out, err)
	}
	miss, _ := svc.Invoke(ctx, "Get", core.Values{"key": "none"})
	if miss.Bool("found") {
		t.Error("phantom hit")
	}
	drop, err := svc.Invoke(ctx, "InvalidateDependency", core.Values{"dependency": "grp"})
	if err != nil || drop.Int("dropped") != 1 {
		t.Errorf("invalidate: %v %v", drop, err)
	}
	stats, err := svc.Invoke(ctx, "Stats", nil)
	if err != nil || stats.Int("hits") != 1 || stats.Int("misses") != 1 {
		t.Errorf("stats: %v %v", stats, err)
	}
	if _, err := svc.Invoke(ctx, "Put", core.Values{"key": "", "value": "v"}); err == nil {
		t.Error("empty key accepted")
	}
}

func TestShoppingCartService(t *testing.T) {
	svc, err := NewShoppingCart(NewCarts())
	if err != nil {
		t.Fatal(err)
	}
	out, err := svc.Invoke(ctx, "CreateCart", nil)
	if err != nil {
		t.Fatal(err)
	}
	cart := out.Int("cart")
	if _, err := svc.Invoke(ctx, "AddItem", core.Values{"cart": cart, "item": "textbook", "quantity": 2, "price": 79.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invoke(ctx, "AddItem", core.Values{"cart": cart, "item": "robot-kit", "quantity": 1, "price": 199.0}); err != nil {
		t.Fatal(err)
	}
	total, err := svc.Invoke(ctx, "Total", core.Values{"cart": cart})
	if err != nil || total.Float("total") != 2*79.5+199 || total.Int("items") != 3 {
		t.Errorf("total: %v %v", total, err)
	}
	if _, err := svc.Invoke(ctx, "RemoveItem", core.Values{"cart": cart, "item": "textbook"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invoke(ctx, "RemoveItem", core.Values{"cart": cart, "item": "ghost"}); err == nil {
		t.Error("removing missing item accepted")
	}
	checkout, err := svc.Invoke(ctx, "Checkout", core.Values{"cart": cart})
	if err != nil || checkout.Float("total") != 199 {
		t.Errorf("checkout: %v %v", checkout, err)
	}
	if _, err := svc.Invoke(ctx, "Total", core.Values{"cart": cart}); err == nil {
		t.Error("cart usable after checkout")
	}
	empty, _ := svc.Invoke(ctx, "CreateCart", nil)
	if _, err := svc.Invoke(ctx, "Checkout", core.Values{"cart": empty.Int("cart")}); err == nil {
		t.Error("empty checkout accepted")
	}
	if _, err := svc.Invoke(ctx, "AddItem", core.Values{"cart": cart, "item": "", "quantity": 1, "price": 1.0}); err == nil {
		t.Error("empty item accepted")
	}
}

func TestMessageBufferService(t *testing.T) {
	svc, err := NewMessageBuffer(NewBuffers())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invoke(ctx, "CreateBuffer", core.Values{"name": "inbox", "capacity": 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invoke(ctx, "CreateBuffer", core.Values{"name": "inbox", "capacity": 2}); err == nil {
		t.Error("duplicate buffer accepted")
	}
	send := func(msg string) core.Values {
		out, err := svc.Invoke(ctx, "Send", core.Values{"name": "inbox", "message": msg})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := send("a"); !out.Bool("accepted") || out.Int("size") != 1 {
		t.Errorf("send a: %v", out)
	}
	send("b")
	if out := send("c"); out.Bool("accepted") {
		t.Errorf("overfull send accepted: %v", out)
	}
	recv, err := svc.Invoke(ctx, "Receive", core.Values{"name": "inbox"})
	if err != nil || !recv.Bool("found") || recv.Str("message") != "a" {
		t.Errorf("receive: %v %v", recv, err)
	}
	size, err := svc.Invoke(ctx, "Size", core.Values{"name": "inbox"})
	if err != nil || size.Int("size") != 1 || size.Int("capacity") != 2 {
		t.Errorf("size: %v %v", size, err)
	}
	_, _ = svc.Invoke(ctx, "Receive", core.Values{"name": "inbox"})
	empty, _ := svc.Invoke(ctx, "Receive", core.Values{"name": "inbox"})
	if empty.Bool("found") {
		t.Error("phantom message")
	}
	if _, err := svc.Invoke(ctx, "Send", core.Values{"name": "ghost", "message": "x"}); err == nil {
		t.Error("missing buffer accepted")
	}
	if _, err := svc.Invoke(ctx, "CreateBuffer", core.Values{"name": "bad", "capacity": 0}); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestCreditScoreDeterministic(t *testing.T) {
	svc, err := NewCreditScore()
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.Invoke(ctx, "Score", core.Values{"ssn": "123-45-6789"})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := svc.Invoke(ctx, "Score", core.Values{"ssn": "123-45-6789"})
	if a.Int("score") != b.Int("score") {
		t.Error("score not deterministic")
	}
	if a.Int("score") < 300 || a.Int("score") > 850 {
		t.Errorf("score %d out of range", a.Int("score"))
	}
	if _, err := svc.Invoke(ctx, "Score", core.Values{"ssn": "123456789"}); err == nil {
		t.Error("bad ssn accepted")
	}
}

// findSSN searches for an SSN whose synthetic score satisfies pred —
// tests need both approvable and deniable applicants.
func findSSN(t *testing.T, pred func(int64) bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		ssn := strings.Join([]string{
			padded(i%900+100, 3), padded(i%90+10, 2), padded(i%9000+1000, 4),
		}, "-")
		score, err := CreditScoreOf(ssn)
		if err != nil {
			t.Fatal(err)
		}
		if pred(score) {
			return ssn
		}
	}
	t.Fatal("no SSN found for predicate")
	return ""
}

func padded(n, width int) string {
	s := strings.Repeat("0", width) + itoa(n)
	return s[len(s)-width:]
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestMortgageApprovalFlow(t *testing.T) {
	store, err := xmlstore.Open(t.TempDir()+"/account.xml", "accounts", "account")
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(_ context.Context, ssn string) (int64, error) { return CreditScoreOf(ssn) }
	svc, err := NewMortgage(store, lookup)
	if err != nil {
		t.Fatal(err)
	}
	goodSSN := findSSN(t, func(s int64) bool { return s >= ApprovalThreshold })
	badSSN := findSSN(t, func(s int64) bool { return s < ApprovalThreshold })

	out, err := svc.Invoke(ctx, "Apply", core.Values{
		"name": "Ada", "ssn": goodSSN, "income": 90000.0, "amount": 300000.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Bool("approved") || out.Str("userId") == "" {
		t.Fatalf("approval: %v", out)
	}
	// Persisted to account.xml.
	status, err := svc.Invoke(ctx, "Status", core.Values{"userId": out.Str("userId")})
	if err != nil || status.Str("state") != "approved" || status.Str("name") != "Ada" {
		t.Errorf("status: %v %v", status, err)
	}
	// Same SSN again: denied.
	dup, err := svc.Invoke(ctx, "Apply", core.Values{
		"name": "Ada2", "ssn": goodSSN, "income": 90000.0, "amount": 100000.0,
	})
	if err != nil || dup.Bool("approved") || !strings.Contains(dup.Str("reason"), "already exists") {
		t.Errorf("duplicate: %v %v", dup, err)
	}
	// Low credit: denied with reason.
	denied, err := svc.Invoke(ctx, "Apply", core.Values{
		"name": "Bob", "ssn": badSSN, "income": 90000.0, "amount": 100000.0,
	})
	if err != nil || denied.Bool("approved") || !strings.Contains(denied.Str("reason"), "credit score") {
		t.Errorf("low credit: %v %v", denied, err)
	}
	// Excessive amount: denied.
	tooBig, err := svc.Invoke(ctx, "Apply", core.Values{
		"name": "Eve", "ssn": findSSN(t, func(s int64) bool { return s >= ApprovalThreshold && s != 0 }),
		"income": 50000.0, "amount": 10000000.0,
	})
	if err != nil || tooBig.Bool("approved") || !strings.Contains(tooBig.Str("reason"), "income") {
		t.Errorf("too big: %v %v", tooBig, err)
	}
	// Validation errors.
	if _, err := svc.Invoke(ctx, "Apply", core.Values{"name": "", "ssn": goodSSN, "income": 1.0, "amount": 1.0}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := svc.Invoke(ctx, "Apply", core.Values{"name": "x", "ssn": "nope", "income": 1.0, "amount": 1.0}); err == nil {
		t.Error("bad ssn accepted")
	}
	if _, err := svc.Invoke(ctx, "Status", core.Values{"userId": "U99999"}); err == nil {
		t.Error("missing user accepted")
	}
}

func findService(t *testing.T, cat *Catalog, name string) *core.Service {
	t.Helper()
	for _, svc := range cat.Services {
		if svc.Name == name {
			return svc
		}
	}
	t.Fatalf("catalog missing %s", name)
	return nil
}

func TestCatalogAssembly(t *testing.T) {
	cat, err := NewCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Services) != 12 {
		t.Errorf("catalog has %d services, want 12", len(cat.Services))
	}
	want := []string{
		"Encryption", "RandomString", "AccessControl", "GuessingGame",
		"DynamicImage", "ImageVerifier", "Caching", "ShoppingCart",
		"MessageBuffer", "CreditScore", "Mortgage", "Compute",
	}
	for _, name := range want {
		findService(t, cat, name)
	}
	if _, err := NewCatalog(""); err == nil {
		t.Error("empty dataDir accepted")
	}
}

func TestCatalogMortgageUsesCreditService(t *testing.T) {
	cat, err := NewCatalog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mortgage := findService(t, cat, "Mortgage")
	ssn := findSSN(t, func(s int64) bool { return s >= ApprovalThreshold })
	out, err := mortgage.Invoke(ctx, "Apply", core.Values{
		"name": "Composed", "ssn": ssn, "income": 80000.0, "amount": 200000.0,
	})
	if err != nil || !out.Bool("approved") {
		t.Errorf("composed apply: %v %v", out, err)
	}
	wantScore, _ := CreditScoreOf(ssn)
	if out.Int("score") != wantScore {
		t.Errorf("score %d != credit service %d", out.Int("score"), wantScore)
	}
}

// TestMortgageApplyKeepsCauses: Apply's errors wrap what failed under
// them — the score lookup's error, and the account store's.
func TestMortgageApplyKeepsCauses(t *testing.T) {
	args := core.Values{
		"name": "Ada", "ssn": findSSN(t, func(s int64) bool { return s >= ApprovalThreshold }),
		"income": 90000.0, "amount": 300000.0,
	}

	errBureau := errors.New("bureau unreachable")
	store, err := xmlstore.Open(t.TempDir()+"/account.xml", "accounts", "account")
	if err != nil {
		t.Fatal(err)
	}
	down, err := NewMortgage(store, func(context.Context, string) (int64, error) { return 0, errBureau })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := down.Invoke(ctx, "Apply", args); !errors.Is(err, errBureau) {
		t.Errorf("lookup failure: err = %v, want it to wrap %v", err, errBureau)
	}

	// One account stored under the id the next approval would take: the
	// approval's insert collides with it.
	store, err = xmlstore.Open(t.TempDir()+"/account.xml", "accounts", "account")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(xmlstore.Record{ID: "U00002", Fields: map[string]string{"ssn": "000-00-0000"}}); err != nil {
		t.Fatal(err)
	}
	svc, err := NewMortgage(store, func(_ context.Context, ssn string) (int64, error) { return CreditScoreOf(ssn) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Invoke(ctx, "Apply", args); !errors.Is(err, xmlstore.ErrDuplicate) {
		t.Errorf("store failure: err = %v, want it to wrap xmlstore.ErrDuplicate", err)
	}
}
