package services

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"regexp"
	"strconv"

	"soc/internal/core"
	"soc/internal/xmlstore"
)

// ssnRE validates the 123-45-6789 form used by the course project.
var ssnRE = regexp.MustCompile(`^\d{3}-\d{2}-\d{4}$`)

// CreditScoreOf is the deterministic synthetic credit bureau: a hash of
// the SSN mapped into [300, 850]. The paper's project calls an external
// credit-score web service; this substitution keeps the same call pattern
// with reproducible outcomes (documented in DESIGN.md).
func CreditScoreOf(ssn string) (int64, error) {
	if !ssnRE.MatchString(ssn) {
		return 0, fmt.Errorf("invalid SSN format")
	}
	sum := sha256.Sum256([]byte("soc-credit:" + ssn))
	v := binary.BigEndian.Uint64(sum[:8])
	return 300 + int64(v%551), nil // 300..850
}

// NewCreditScore builds the credit-score service the mortgage provider
// consumes (the "Credit score Web service" box of Figure 4).
func NewCreditScore() (*core.Service, error) {
	svc, err := core.NewService("CreditScore", NamespacePrefix+"creditscore",
		"synthetic credit bureau: deterministic score per SSN in [300,850]")
	if err != nil {
		return nil, err
	}
	svc.Category = "finance/credit"
	err = svc.AddOperation(core.Operation{
		Name:       "Score",
		Idempotent: true,
		Input:      []core.Param{{Name: "ssn", Type: core.String}},
		Output:     []core.Param{{Name: "score", Type: core.Int}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			score, err := CreditScoreOf(in.Str("ssn"))
			if err != nil {
				return nil, err
			}
			return core.Values{"score": score}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return svc, nil
}

// ScoreLookup abstracts where the mortgage service gets credit scores —
// in-process, or over the wire through a host client.
type ScoreLookup func(ctx context.Context, ssn string) (int64, error)

// ApprovalThreshold is the minimum credit score the Figure 4 flow
// approves.
const ApprovalThreshold = 620

// MaxDebtToIncome caps the loan at this multiple of annual income.
const MaxDebtToIncome = 5.0

// NewMortgage builds the mortgage application/approval service of
// Figure 4: check credit (via the provided lookup), decide, persist
// approved applications to the XML account store, and issue user ids.
func NewMortgage(store *xmlstore.Store, lookup ScoreLookup) (*core.Service, error) {
	if store == nil || lookup == nil {
		return nil, fmt.Errorf("services: mortgage needs store and score lookup")
	}
	svc, err := core.NewService("Mortgage", NamespacePrefix+"mortgage",
		"mortgage application and approval backed by the credit-score service")
	if err != nil {
		return nil, err
	}
	svc.Category = "finance/lending"
	err = svc.AddOperation(core.Operation{
		Name: "Apply",
		Doc:  "submits an application; approved applicants receive a user id",
		Input: []core.Param{
			{Name: "name", Type: core.String},
			{Name: "ssn", Type: core.String},
			{Name: "income", Type: core.Float, Doc: "annual income"},
			{Name: "amount", Type: core.Float, Doc: "requested loan"},
		},
		Output: []core.Param{
			{Name: "approved", Type: core.Bool},
			{Name: "userId", Type: core.String},
			{Name: "reason", Type: core.String},
			{Name: "score", Type: core.Int},
		},
		Handler: func(ctx context.Context, in core.Values) (core.Values, error) {
			if in.Str("name") == "" {
				return nil, fmt.Errorf("name required")
			}
			if in.Float("income") <= 0 || in.Float("amount") <= 0 {
				return nil, fmt.Errorf("income and amount must be positive")
			}
			score, err := lookup(ctx, in.Str("ssn"))
			if err != nil {
				return nil, fmt.Errorf("credit check: %w", err)
			}
			deny := func(reason string) (core.Values, error) {
				return core.Values{"approved": false, "userId": "", "reason": reason, "score": score}, nil
			}
			if score < ApprovalThreshold {
				return deny(fmt.Sprintf("credit score %d below %d", score, ApprovalThreshold))
			}
			if in.Float("amount") > MaxDebtToIncome*in.Float("income") {
				return deny(fmt.Sprintf("amount exceeds %.0fx income", MaxDebtToIncome))
			}
			if existing := store.Find("ssn", in.Str("ssn")); len(existing) > 0 {
				return deny("an application for this SSN already exists")
			}
			userID := fmt.Sprintf("U%05d", store.Len()+1)
			err = store.Insert(xmlstore.Record{
				ID: userID,
				Fields: map[string]string{
					"name":   in.Str("name"),
					"ssn":    in.Str("ssn"),
					"income": strconv.FormatFloat(in.Float("income"), 'f', 2, 64),
					"amount": strconv.FormatFloat(in.Float("amount"), 'f', 2, 64),
					"score":  strconv.FormatInt(score, 10),
					"state":  "approved",
				},
			})
			if err != nil {
				return nil, fmt.Errorf("persisting application: %w", err)
			}
			return core.Values{"approved": true, "userId": userID, "reason": "", "score": score}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	err = svc.AddOperation(core.Operation{
		Name:   "Status",
		Doc:    "reports the stored application state for a user id",
		Input:  []core.Param{{Name: "userId", Type: core.String}},
		Output: []core.Param{{Name: "state", Type: core.String}, {Name: "name", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			rec, err := store.Get(in.Str("userId"))
			if err != nil {
				return nil, err
			}
			return core.Values{"state": rec.Fields["state"], "name": rec.Fields["name"]}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return svc, nil
}
