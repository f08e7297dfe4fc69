// Mortgage: drives the Figure 4 web application end-to-end as a real HTTP
// client — subscribe, get denied or approved by the credit-score service,
// create a password, and log in — then reopen the provider's account.xml
// store and update and delete the account there.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"soc/internal/mortgageapp"
	"soc/internal/services"
	"soc/internal/xmlstore"
)

func main() {
	dataDir, err := os.MkdirTemp("", "mortgage-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	app, err := mortgageapp.New(dataDir)
	if err != nil {
		log.Fatal(err)
	}
	server := httptest.NewServer(app)
	defer server.Close()
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar, Timeout: 30 * time.Second}
	fmt.Println("provider:", server.URL)

	// Find an SSN the synthetic bureau approves.
	ssn := ""
	for a := 100; a < 1000 && ssn == ""; a++ {
		candidate := fmt.Sprintf("%03d-%02d-%04d", a, a%90+10, a*7%9000+1000)
		if score, err := services.CreditScoreOf(candidate); err == nil && score >= services.ApprovalThreshold {
			ssn = candidate
		}
	}

	post := func(path string, form url.Values) map[string]any {
		resp, err := client.PostForm(server.URL+path, form)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var body map[string]any
		_ = json.Unmarshal(data, &body)
		fmt.Printf("POST %-12s -> %d %v\n", path, resp.StatusCode, body)
		return body
	}

	body := post("/subscribe", url.Values{
		"name": {"Ada Lovelace"}, "ssn": {ssn}, "address": {"1 Analytical Way"},
		"dob": {"1985-12-10"}, "income": {"120000"}, "amount": {"400000"},
	})
	userID, _ := body["userId"].(string)
	if userID == "" {
		log.Fatal("application not approved")
	}
	post("/password", url.Values{
		"userId": {userID}, "password": {"Engine1842!"}, "retype": {"Engine1842!"},
	})
	post("/login", url.Values{"userId": {userID}, "password": {"Engine1842!"}})

	resp, err := client.Get(server.URL + "/account/" + userID)
	if err != nil {
		log.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("GET  /account/%s -> %d %s\n", userID, resp.StatusCode, data)

	// The provider's data layer (chapter 10): reopen account.xml as the
	// back office would, list it, change a field and close the account.
	server.Close()
	accounts, err := xmlstore.Open(filepath.Join(dataDir, "account.xml"), "accounts", "account")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naccount.xml reopened (salvaged: %v):\n", accounts.Report().Salvaged)
	for _, rec := range accounts.All() {
		fmt.Printf("  %s %s\n", rec.ID, rec.Fields["name"])
	}
	rec, err := accounts.Get(userID)
	if err != nil {
		log.Fatal(err)
	}
	rec.Fields["address"] = "2 Difference Engine Row"
	if err := accounts.Update(rec); err != nil {
		log.Fatal(err)
	}
	if err := accounts.Delete(userID); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("updated, then closed %s: %d accounts left\n", userID, accounts.Len())
}
