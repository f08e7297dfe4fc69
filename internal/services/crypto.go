// Package services implements the ASU Repository of Services and
// Applications described in §V of the paper: "encryption and decryption
// services, access control services, random number guessing game services,
// random string (strong password) generation services, dynamic image
// generation services, random string image (image verifier) service,
// caching services, shopping cart services, messaging buffer services, and
// mortgage application/approval services" — each as a soc/internal/core
// service so every one is simultaneously hostable over SOAP and REST.
package services

import (
	"context"
	"fmt"

	"soc/internal/core"
	"soc/internal/security"
)

// Namespace prefix shared by the repository's services.
const NamespacePrefix = "http://soc.asu.example/wsrepository/"

// NewEncryption builds the encryption/decryption service.
func NewEncryption() (*core.Service, error) {
	svc, err := core.NewService("Encryption", NamespacePrefix+"encryption",
		"AES-GCM encryption and decryption under a passphrase-derived key")
	if err != nil {
		return nil, err
	}
	svc.Category = "security/encryption"
	err = svc.AddOperation(core.Operation{
		Name: "Encrypt",
		Doc:  "seals plaintext under the passphrase; returns base64 ciphertext",
		Input: []core.Param{
			{Name: "passphrase", Type: core.String},
			{Name: "plaintext", Type: core.String},
		},
		Output: []core.Param{{Name: "ciphertext", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			if in.Str("passphrase") == "" {
				return nil, fmt.Errorf("empty passphrase")
			}
			ct, err := security.Encrypt(in.Str("passphrase"), []byte(in.Str("plaintext")))
			if err != nil {
				return nil, err
			}
			return core.Values{"ciphertext": ct}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	err = svc.AddOperation(core.Operation{
		Name:       "Decrypt",
		Idempotent: true,
		Doc:        "opens base64 ciphertext sealed by Encrypt",
		Input: []core.Param{
			{Name: "passphrase", Type: core.String},
			{Name: "ciphertext", Type: core.String},
		},
		Output: []core.Param{{Name: "plaintext", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			pt, err := security.Decrypt(in.Str("passphrase"), in.Str("ciphertext"))
			if err != nil {
				return nil, err
			}
			return core.Values{"plaintext": string(pt)}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return svc, nil
}

// NewRandomString builds the random string / strong password service.
func NewRandomString() (*core.Service, error) {
	svc, err := core.NewService("RandomString", NamespacePrefix+"randomstring",
		"random string and strong password generation with strength checking")
	if err != nil {
		return nil, err
	}
	svc.Category = "security/passwords"
	err = svc.AddOperation(core.Operation{
		Name: "Generate",
		Doc:  "returns length alphanumeric characters",
		Input: []core.Param{
			{Name: "length", Type: core.Int},
		},
		Output: []core.Param{{Name: "value", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			n := in.Int("length")
			if n < 1 || n > 1024 {
				return nil, fmt.Errorf("length %d out of [1,1024]", n)
			}
			s, err := security.RandomString(int(n), security.AlphabetAlnum)
			if err != nil {
				return nil, err
			}
			return core.Values{"value": s}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	err = svc.AddOperation(core.Operation{
		Name:   "StrongPassword",
		Doc:    "returns a password satisfying the default strength policy",
		Input:  []core.Param{{Name: "length", Type: core.Int}},
		Output: []core.Param{{Name: "password", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			n := in.Int("length")
			if n < 8 || n > 256 {
				return nil, fmt.Errorf("length %d out of [8,256]", n)
			}
			// Re-draw until the policy passes; a few tries suffice.
			for tries := 0; tries < 64; tries++ {
				s, err := security.RandomString(int(n), security.AlphabetPassword)
				if err != nil {
					return nil, err
				}
				if security.DefaultPolicy.Check(s) == nil {
					return core.Values{"password": s}, nil
				}
			}
			return nil, fmt.Errorf("could not satisfy policy")
		},
	})
	if err != nil {
		return nil, err
	}
	err = svc.AddOperation(core.Operation{
		Name:       "CheckStrength",
		Idempotent: true,
		Doc:        "evaluates a password against the default policy",
		Input:      []core.Param{{Name: "password", Type: core.String}},
		Output:     []core.Param{{Name: "strong", Type: core.Bool}, {Name: "reason", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			if err := security.DefaultPolicy.Check(in.Str("password")); err != nil {
				return core.Values{"strong": false, "reason": err.Error()}, nil
			}
			return core.Values{"strong": true, "reason": ""}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return svc, nil
}

// NewAccessControl builds the access-control service over an RBAC policy.
func NewAccessControl(policy *security.RBAC) (*core.Service, error) {
	if policy == nil {
		return nil, fmt.Errorf("services: nil policy")
	}
	svc, err := core.NewService("AccessControl", NamespacePrefix+"accesscontrol",
		"role-based access control decisions")
	if err != nil {
		return nil, err
	}
	svc.Category = "security/access-control"
	err = svc.AddOperation(core.Operation{
		Name: "Check",
		Doc:  "decides whether user may perform permission (resource:action)",
		Input: []core.Param{
			{Name: "user", Type: core.String},
			{Name: "permission", Type: core.String},
		},
		Output: []core.Param{{Name: "allowed", Type: core.Bool}, {Name: "reason", Type: core.String}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			err := policy.Check(in.Str("user"), in.Str("permission"))
			reason := ""
			if err != nil {
				reason = err.Error()
			}
			return core.Values{"allowed": err == nil, "reason": reason}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	err = svc.AddOperation(core.Operation{
		Name: "AssignRole",
		Doc:  "grants a role to a user",
		Input: []core.Param{
			{Name: "user", Type: core.String},
			{Name: "role", Type: core.String},
		},
		Output: []core.Param{{Name: "ok", Type: core.Bool}},
		Handler: func(_ context.Context, in core.Values) (core.Values, error) {
			if in.Str("user") == "" || in.Str("role") == "" {
				return nil, fmt.Errorf("user and role required")
			}
			policy.AssignRole(in.Str("user"), in.Str("role"))
			return core.Values{"ok": true}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	return svc, nil
}
