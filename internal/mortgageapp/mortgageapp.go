// Package mortgageapp is the Figure 4 course project as a working web
// application: from the client an end user applies for an account by
// submitting personal information; the provider checks a credit-score
// web service, issues a user ID if approved, lets the user create a
// password (strength- and match-checked), persists the account to an XML
// file, and finally authenticates logins — "GUI design at the
// presentation layer, programming at business logic layer, and data
// manipulation and storage at data management".
package mortgageapp

import (
	"context"
	"errors"
	"html/template"
	"net/http"
	"sync"

	"soc/internal/core"
	"soc/internal/rest"
	"soc/internal/security"
	"soc/internal/services"
	"soc/internal/session"
	"soc/internal/webapp"
	"soc/internal/xmlstore"
)

// App is the provider side of Figure 4.
type App struct {
	mortgage  *core.Service
	accounts  *xmlstore.Store
	sessions  *session.Manager
	router    *rest.Router
	applyForm *webapp.Form

	mu        sync.Mutex
	passwords map[string]string // userID → password record (hashed)
}

// New assembles the application over a data directory (for account.xml).
// The credit-score dependency is the in-repo synthetic bureau.
func New(dataDir string) (*App, error) {
	accounts, err := xmlstore.Open(dataDir+"/account.xml", "accounts", "account")
	if err != nil {
		return nil, err
	}
	lookup := func(_ context.Context, ssn string) (int64, error) {
		return services.CreditScoreOf(ssn)
	}
	mortgage, err := services.NewMortgage(accounts, lookup)
	if err != nil {
		return nil, err
	}
	applyForm, err := webapp.NewForm(
		webapp.Field{Name: "name", Label: "Name", Required: true},
		webapp.Field{Name: "ssn", Label: "SSN", Required: true, Pattern: webapp.PatternSSN},
		webapp.Field{Name: "address", Label: "Address", Required: true},
		webapp.Field{Name: "dob", Label: "Date of birth", Required: true,
			Pattern: webapp.PatternDate, Validate: webapp.ValidDate},
		webapp.Field{Name: "income", Label: "Annual income", Required: true, Pattern: `\d+(\.\d+)?`},
		webapp.Field{Name: "amount", Label: "Loan amount", Required: true, Pattern: `\d+(\.\d+)?`},
	)
	if err != nil {
		return nil, err
	}
	a := &App{
		mortgage:  mortgage,
		accounts:  accounts,
		sessions:  session.NewManager(),
		router:    rest.NewRouter(),
		applyForm: applyForm,
		passwords: map[string]string{},
	}
	a.router.Use(rest.Recovery())
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(a.router.GET("/", a.home))
	must(a.router.POST("/subscribe", a.subscribe))
	must(a.router.POST("/password", a.createPassword))
	must(a.router.POST("/login", a.login))
	must(a.router.GET("/account/{id}", a.account))
	return a, nil
}

// ServeHTTP implements http.Handler.
func (a *App) ServeHTTP(w http.ResponseWriter, r *http.Request) { a.router.ServeHTTP(w, r) }

var homeTmpl = template.Must(template.New("home").Parse(`<!DOCTYPE html>
<html><head><title>Mortgage Application</title></head><body>
<h1>Apply for an account</h1>
<form action="/subscribe" method="POST">
  Name <input name="name"> SSN <input name="ssn" placeholder="123-45-6789">
  Address <input name="address"> DoB <input name="dob" placeholder="YYYY-MM-DD">
  Income <input name="income"> Amount <input name="amount">
  <input type="submit" value="Subscribe">
</form>
<h1>Login</h1>
<form action="/login" method="POST">
  User ID <input name="userId"> Password <input type="password" name="password">
  <input type="submit" value="Login">
</form>
</body></html>`))

func (a *App) home(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_ = homeTmpl.Execute(w, nil)
}

// subscribeResult is the JSON the subscribe endpoint answers with (the
// tests and the example client drive the flow programmatically; a browser
// shows the same fields rendered).
type subscribeResult struct {
	Approved bool   `json:"approved"`
	UserID   string `json:"userId,omitempty"`
	Reason   string `json:"reason,omitempty"`
	Score    int64  `json:"score"`
}

func (a *App) subscribe(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	clean, errs := a.applyForm.ValidateRequest(r)
	if !errs.Ok() {
		rest.WriteError(w, r, http.StatusBadRequest, "%v", errs)
		return
	}
	sess := a.sessions.FromRequest(w, r)
	out, err := a.mortgage.Invoke(r.Context(), "Apply", core.Values{
		"name": clean["name"], "ssn": clean["ssn"],
		"income": clean["income"], "amount": clean["amount"],
	})
	if err != nil {
		rest.WriteError(w, r, http.StatusBadRequest, "application failed: %v", err)
		return
	}
	res := subscribeResult{
		Approved: out.Bool("approved"),
		UserID:   out.Str("userId"),
		Reason:   out.Str("reason"),
		Score:    out.Int("score"),
	}
	if res.Approved {
		// Remember which user this session may set a password for.
		sess.Set("pendingUser", res.UserID)
	}
	rest.WriteResponse(w, r, http.StatusOK, res)
}

func (a *App) createPassword(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	sess := a.sessions.FromRequest(w, r)
	if err := r.ParseForm(); err != nil {
		rest.WriteError(w, r, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	userID := r.PostFormValue("userId")
	pw := r.PostFormValue("password")
	retype := r.PostFormValue("retype")
	pending := sess.GetString("pendingUser")
	if pending == "" || pending != userID {
		rest.WriteError(w, r, http.StatusForbidden, "no pending application for %q in this session", userID)
		return
	}
	// Figure 4's two checks: Match? and Strong?
	if pw != retype {
		rest.WriteError(w, r, http.StatusBadRequest, "passwords do not match")
		return
	}
	if err := security.DefaultPolicy.Check(pw); err != nil {
		rest.WriteError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	record, err := security.HashPassword(pw)
	if err != nil {
		rest.WriteError(w, r, http.StatusInternalServerError, "hashing: %v", err)
		return
	}
	a.mu.Lock()
	a.passwords[userID] = record
	a.mu.Unlock()
	sess.Delete("pendingUser")
	rest.WriteResponse(w, r, http.StatusOK, map[string]any{"userId": userID, "ready": true})
}

func (a *App) login(w http.ResponseWriter, r *http.Request, _ rest.Params) {
	if err := r.ParseForm(); err != nil {
		rest.WriteError(w, r, http.StatusBadRequest, "bad form: %v", err)
		return
	}
	userID := r.PostFormValue("userId")
	pw := r.PostFormValue("password")
	a.mu.Lock()
	record, ok := a.passwords[userID]
	a.mu.Unlock()
	if !ok {
		rest.WriteError(w, r, http.StatusUnauthorized, "unknown user or missing password")
		return
	}
	if err := security.VerifyPassword(pw, record); err != nil {
		if errors.Is(err, security.ErrAuth) {
			rest.WriteError(w, r, http.StatusUnauthorized, "wrong password")
			return
		}
		rest.WriteError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	sess := a.sessions.FromRequest(w, r)
	sess.Set("user", userID)
	rest.WriteResponse(w, r, http.StatusOK, map[string]any{"userId": userID, "loggedIn": true})
}

func (a *App) account(w http.ResponseWriter, r *http.Request, p rest.Params) {
	sess := a.sessions.FromRequest(w, r)
	if sess.GetString("user") != p["id"] {
		rest.WriteError(w, r, http.StatusForbidden, "log in as %s first", p["id"])
		return
	}
	rec, err := a.accounts.Get(p["id"])
	if err != nil {
		rest.WriteError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	rest.WriteResponse(w, r, http.StatusOK, map[string]any{
		"userId": rec.ID,
		"name":   rec.Fields["name"],
		"state":  rec.Fields["state"],
		"amount": rec.Fields["amount"],
	})
}
