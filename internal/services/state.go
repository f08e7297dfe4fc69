package services

import (
	"context"
	"fmt"
	"sync"

	"soc/internal/core"
	"soc/internal/parallel"
	"soc/internal/session"
)

// NewCaching builds the caching service over an LRU+TTL cache.
func NewCaching(cache *session.Cache) (*core.Service, error) {
	if cache == nil {
		return nil, fmt.Errorf("services: nil cache")
	}
	svc, err := core.NewService("Caching", NamespacePrefix+"caching",
		"shared LRU+TTL cache with dependency invalidation")
	if err != nil {
		return nil, err
	}
	svc.Category = "state/caching"
	ops := []core.Operation{
		{
			Name: "Put",
			Doc:  "stores value under key, optionally tagged with a dependency",
			Input: []core.Param{
				{Name: "key", Type: core.String},
				{Name: "value", Type: core.String},
				{Name: "dependency", Type: core.String, Optional: true},
			},
			Output: []core.Param{{Name: "ok", Type: core.Bool}},
			Handler: func(ctx context.Context, in core.Values) (core.Values, error) {
				if in.Str("key") == "" {
					return nil, fmt.Errorf("empty key")
				}
				if dep := in.Str("dependency"); dep != "" {
					cache.Put(ctx, in.Str("key"), in.Str("value"), dep)
				} else {
					cache.Put(ctx, in.Str("key"), in.Str("value"))
				}
				return core.Values{"ok": true}, nil
			},
		},
		{
			Name:   "Get",
			Doc:    "fetches a cached value; found=false on miss",
			Input:  []core.Param{{Name: "key", Type: core.String}},
			Output: []core.Param{{Name: "value", Type: core.String}, {Name: "found", Type: core.Bool}},
			Handler: func(ctx context.Context, in core.Values) (core.Values, error) {
				v, ok := cache.Get(ctx, in.Str("key"))
				s, _ := v.(string)
				return core.Values{"value": s, "found": ok}, nil
			},
		},
		{
			Name:   "InvalidateDependency",
			Doc:    "drops every entry tagged with the dependency",
			Input:  []core.Param{{Name: "dependency", Type: core.String}},
			Output: []core.Param{{Name: "dropped", Type: core.Int}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				return core.Values{"dropped": int64(cache.InvalidateDependency(in.Str("dependency")))}, nil
			},
		},
		{
			Name:   "Stats",
			Doc:    "reports hit/miss counters",
			Output: []core.Param{{Name: "hits", Type: core.Int}, {Name: "misses", Type: core.Int}},
			Handler: func(context.Context, core.Values) (core.Values, error) {
				h, m := cache.Stats()
				return core.Values{"hits": int64(h), "misses": int64(m)}, nil
			},
		},
	}
	for _, op := range ops {
		if err := svc.AddOperation(op); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// Carts stores shopping carts keyed by id.
type Carts struct {
	mu     sync.Mutex
	nextID int64
	carts  map[int64]map[string]cartLine
}

type cartLine struct {
	qty   int64
	price float64
}

// NewCarts returns an empty cart store.
func NewCarts() *Carts { return &Carts{carts: map[int64]map[string]cartLine{}} }

// NewShoppingCart builds the stateful shopping cart service.
func NewShoppingCart(store *Carts) (*core.Service, error) {
	if store == nil {
		return nil, fmt.Errorf("services: nil cart store")
	}
	svc, err := core.NewService("ShoppingCart", NamespacePrefix+"shoppingcart",
		"stateful shopping cart: add and remove items, total, check out")
	if err != nil {
		return nil, err
	}
	svc.Category = "commerce"
	ops := []core.Operation{
		{
			Name:   "CreateCart",
			Output: []core.Param{{Name: "cart", Type: core.Int}},
			Handler: func(context.Context, core.Values) (core.Values, error) {
				store.mu.Lock()
				defer store.mu.Unlock()
				store.nextID++
				store.carts[store.nextID] = map[string]cartLine{}
				return core.Values{"cart": store.nextID}, nil
			},
		},
		{
			Name: "AddItem",
			Input: []core.Param{
				{Name: "cart", Type: core.Int},
				{Name: "item", Type: core.String},
				{Name: "quantity", Type: core.Int},
				{Name: "price", Type: core.Float},
			},
			Output: []core.Param{{Name: "items", Type: core.Int}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				if in.Str("item") == "" || in.Int("quantity") < 1 || in.Float("price") < 0 {
					return nil, fmt.Errorf("need item, positive quantity, non-negative price")
				}
				store.mu.Lock()
				defer store.mu.Unlock()
				cart, ok := store.carts[in.Int("cart")]
				if !ok {
					return nil, fmt.Errorf("no cart %d", in.Int("cart"))
				}
				line := cart[in.Str("item")]
				line.qty += in.Int("quantity")
				line.price = in.Float("price")
				cart[in.Str("item")] = line
				return core.Values{"items": countItems(cart)}, nil
			},
		},
		{
			Name: "RemoveItem",
			Input: []core.Param{
				{Name: "cart", Type: core.Int},
				{Name: "item", Type: core.String},
			},
			Output: []core.Param{{Name: "items", Type: core.Int}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				store.mu.Lock()
				defer store.mu.Unlock()
				cart, ok := store.carts[in.Int("cart")]
				if !ok {
					return nil, fmt.Errorf("no cart %d", in.Int("cart"))
				}
				if _, ok := cart[in.Str("item")]; !ok {
					return nil, fmt.Errorf("cart %d has no %q", in.Int("cart"), in.Str("item"))
				}
				delete(cart, in.Str("item"))
				return core.Values{"items": countItems(cart)}, nil
			},
		},
		{
			Name:   "Total",
			Input:  []core.Param{{Name: "cart", Type: core.Int}},
			Output: []core.Param{{Name: "total", Type: core.Float}, {Name: "items", Type: core.Int}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				store.mu.Lock()
				defer store.mu.Unlock()
				cart, ok := store.carts[in.Int("cart")]
				if !ok {
					return nil, fmt.Errorf("no cart %d", in.Int("cart"))
				}
				total := 0.0
				for _, line := range cart {
					total += float64(line.qty) * line.price
				}
				return core.Values{"total": total, "items": countItems(cart)}, nil
			},
		},
		{
			Name:   "Checkout",
			Doc:    "finalizes and removes the cart, returning the amount due",
			Input:  []core.Param{{Name: "cart", Type: core.Int}},
			Output: []core.Param{{Name: "total", Type: core.Float}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				store.mu.Lock()
				defer store.mu.Unlock()
				cart, ok := store.carts[in.Int("cart")]
				if !ok {
					return nil, fmt.Errorf("no cart %d", in.Int("cart"))
				}
				if len(cart) == 0 {
					return nil, fmt.Errorf("cart %d is empty", in.Int("cart"))
				}
				total := 0.0
				for _, line := range cart {
					total += float64(line.qty) * line.price
				}
				delete(store.carts, in.Int("cart"))
				return core.Values{"total": total}, nil
			},
		},
	}
	for _, op := range ops {
		if err := svc.AddOperation(op); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

func countItems(cart map[string]cartLine) int64 {
	var n int64
	for _, line := range cart {
		n += line.qty
	}
	return n
}

// Buffers stores named bounded message buffers.
type Buffers struct {
	mu   sync.Mutex
	bufs map[string]*parallel.Queue[string]
}

// NewBuffers returns an empty buffer store.
func NewBuffers() *Buffers { return &Buffers{bufs: map[string]*parallel.Queue[string]{}} }

// NewMessageBuffer builds the messaging buffer service: named bounded
// FIFO queues with non-blocking receive.
func NewMessageBuffer(store *Buffers) (*core.Service, error) {
	if store == nil {
		return nil, fmt.Errorf("services: nil buffer store")
	}
	svc, err := core.NewService("MessageBuffer", NamespacePrefix+"messagebuffer",
		"named bounded FIFO message buffers (producer/consumer over the wire)")
	if err != nil {
		return nil, err
	}
	svc.Category = "state/messaging"
	ops := []core.Operation{
		{
			Name: "CreateBuffer",
			Input: []core.Param{
				{Name: "name", Type: core.String},
				{Name: "capacity", Type: core.Int},
			},
			Output: []core.Param{{Name: "ok", Type: core.Bool}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				if in.Str("name") == "" {
					return nil, fmt.Errorf("empty buffer name")
				}
				q, err := parallel.NewQueue[string](int(in.Int("capacity")))
				if err != nil {
					return nil, err
				}
				store.mu.Lock()
				defer store.mu.Unlock()
				if _, dup := store.bufs[in.Str("name")]; dup {
					return nil, fmt.Errorf("buffer %q exists", in.Str("name"))
				}
				store.bufs[in.Str("name")] = q
				return core.Values{"ok": true}, nil
			},
		},
		{
			Name: "Send",
			Doc:  "appends a message; accepted=false when the buffer is full",
			Input: []core.Param{
				{Name: "name", Type: core.String},
				{Name: "message", Type: core.String},
			},
			Output: []core.Param{{Name: "accepted", Type: core.Bool}, {Name: "size", Type: core.Int}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				q, err := bufferOf(store, in.Str("name"))
				if err != nil {
					return nil, err
				}
				// Non-blocking semantics over the wire: full means refuse.
				accepted := q.TryPut(in.Str("message"))
				return core.Values{"accepted": accepted, "size": int64(q.Len())}, nil
			},
		},
		{
			Name:   "Receive",
			Doc:    "removes the oldest message; found=false when empty",
			Input:  []core.Param{{Name: "name", Type: core.String}},
			Output: []core.Param{{Name: "message", Type: core.String}, {Name: "found", Type: core.Bool}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				q, err := bufferOf(store, in.Str("name"))
				if err != nil {
					return nil, err
				}
				msg, ok := q.TryTake()
				return core.Values{"message": msg, "found": ok}, nil
			},
		},
		{
			Name:   "Size",
			Input:  []core.Param{{Name: "name", Type: core.String}},
			Output: []core.Param{{Name: "size", Type: core.Int}, {Name: "capacity", Type: core.Int}},
			Handler: func(_ context.Context, in core.Values) (core.Values, error) {
				q, err := bufferOf(store, in.Str("name"))
				if err != nil {
					return nil, err
				}
				return core.Values{"size": int64(q.Len()), "capacity": int64(q.Cap())}, nil
			},
		},
	}
	for _, op := range ops {
		if err := svc.AddOperation(op); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

func bufferOf(store *Buffers, name string) (*parallel.Queue[string], error) {
	store.mu.Lock()
	defer store.mu.Unlock()
	q, ok := store.bufs[name]
	if !ok {
		return nil, fmt.Errorf("no buffer %q", name)
	}
	return q, nil
}
