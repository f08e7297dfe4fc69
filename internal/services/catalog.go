package services

import (
	"context"
	"fmt"
	"path/filepath"

	"soc/internal/core"
	"soc/internal/host"
	"soc/internal/registry"
	"soc/internal/security"
	"soc/internal/session"
	"soc/internal/xmlstore"
)

// Catalog is the assembled ASU repository: every sample service plus the
// shared state they run on.
type Catalog struct {
	Services []*core.Service

	Policy     *security.RBAC
	Audit      *security.AuditLog
	Cache      *session.Cache
	Carts      *Carts
	Buffers    *Buffers
	Games      *GuessingGames
	Challenges *Challenges
	Accounts   *xmlstore.Store
}

// NewCatalog builds the full repository. dataDir holds the XML account
// store (the Figure 4 account.xml).
func NewCatalog(dataDir string) (*Catalog, error) {
	if dataDir == "" {
		return nil, fmt.Errorf("services: dataDir required")
	}
	accounts, err := xmlstore.Open(filepath.Join(dataDir, "account.xml"), "accounts", "account")
	if err != nil {
		return nil, err
	}
	cache, err := session.NewCache(1024)
	if err != nil {
		return nil, err
	}
	c := &Catalog{
		Policy:     security.NewRBAC(),
		Audit:      security.NewAuditLog(4096),
		Cache:      cache,
		Carts:      NewCarts(),
		Buffers:    NewBuffers(),
		Games:      NewGuessingGames(),
		Challenges: NewChallenges(),
		Accounts:   accounts,
	}
	// Seed a default policy so access-control demos work out of the box.
	c.Policy.GrantRole("admin", "*:*")
	c.Policy.GrantRole("student", "services:read", "services:invoke")
	c.Policy.AssignRole("instructor", "admin")

	credit, err := NewCreditScore()
	if err != nil {
		return nil, err
	}
	// In-catalog composition: the mortgage service consumes the credit
	// service through its public Invoke surface (service → service).
	lookup := func(ctx context.Context, ssn string) (int64, error) {
		out, err := credit.Invoke(ctx, "Score", core.Values{"ssn": ssn})
		if err != nil {
			return 0, err
		}
		return out.Int("score"), nil
	}

	builders := []func() (*core.Service, error){
		NewEncryption,
		NewRandomString,
		func() (*core.Service, error) { return NewAccessControl(c.Policy, c.Audit) },
		func() (*core.Service, error) { return NewGuessingGame(c.Games) },
		NewDynamicImage,
		func() (*core.Service, error) { return NewImageVerifier(c.Challenges) },
		func() (*core.Service, error) { return NewCaching(c.Cache) },
		func() (*core.Service, error) { return NewShoppingCart(c.Carts) },
		func() (*core.Service, error) { return NewMessageBuffer(c.Buffers) },
		func() (*core.Service, error) { return credit, nil },
		func() (*core.Service, error) { return NewMortgage(c.Accounts, lookup) },
		NewCompute,
	}
	for _, build := range builders {
		svc, err := build()
		if err != nil {
			return nil, err
		}
		c.Services = append(c.Services, svc)
	}
	return c, nil
}

// MountAll mounts every catalog service on the host.
func (c *Catalog) MountAll(h *host.Host) error {
	for _, svc := range c.Services {
		if err := h.Mount(svc); err != nil {
			return err
		}
	}
	return nil
}

// Publisher is the registry surface PublishAll needs — satisfied by both
// *registry.Registry and *registry.DurableRegistry.
type Publisher interface {
	Publish(e registry.Entry) error
}

// PublishAll publishes every catalog service into the registry under the
// given endpoint base URL.
func (c *Catalog) PublishAll(reg Publisher, baseURL, provider string) error {
	for _, svc := range c.Services {
		var ops []string
		for _, op := range svc.Operations() {
			ops = append(ops, op.Name)
		}
		err := reg.Publish(registry.Entry{
			Name:       svc.Name,
			Namespace:  svc.Namespace,
			Doc:        svc.Doc,
			Category:   svc.Category,
			Endpoint:   baseURL + "/services/" + svc.Name,
			Bindings:   []string{"soap", "rest"},
			Operations: ops,
			Provider:   provider,
		})
		if err != nil {
			return err
		}
	}
	return nil
}
