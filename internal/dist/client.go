package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"sync"

	"repro/internal/campaign"
	"repro/internal/metrics"
)

// StoreClient talks to a StoreServer and implements campaign.Tier, so a
// worker's in-process cache gains the network tier with one SetTier
// call: L1 miss → HTTP get; fresh compute → HTTP put (write-through).
// Tier faults are counted and absorbed — a flaky store degrades a node
// to recomputing, it never fails a campaign.
//
// Every RPC carries a deadline and a bounded retry budget (RPCConfig),
// and propagates the caller's context — the seed's bare http.Client{}
// could wedge a coordinator goroutine forever on one stalled TCP
// connection. A write-through the store did not acknowledge is kept
// under its key until Publish puts it, so a worker whose store link is
// cut still holds what it computed and can answer for it once the link
// heals.
type StoreClient struct {
	base string
	rpc  *rpc

	mu     sync.Mutex
	unsent map[string]campaign.Entry // failed write-throughs, by key
}

// NewStoreClient creates a client for a store base URL
// (e.g. "http://127.0.0.1:7600") with default hardening.
func NewStoreClient(baseURL string) *StoreClient {
	return NewStoreClientCfg(baseURL, RPCConfig{})
}

// NewStoreClientCfg creates a client whose RPCs cfg tunes: the jitter
// seed and the transport (where the chaos engine plugs in).
func NewStoreClientCfg(baseURL string, cfg RPCConfig) *StoreClient {
	return &StoreClient{
		base:   baseURL,
		rpc:    newRPC(cfg, "store"),
		unsent: map[string]campaign.Entry{},
	}
}

// Close releases pooled connections. The client stays usable; Close is
// a leak-hygiene call for shutdown paths.
func (c *StoreClient) Close() { c.rpc.closeIdle() }

func (c *StoreClient) entryURL(key string) string {
	return c.base + "/v1/entry?key=" + url.QueryEscape(key)
}

// Load implements campaign.Tier: fetch and decode the entry for key.
func (c *StoreClient) Load(key string) (campaign.Entry, bool) {
	return c.LoadCtx(context.Background(), key)
}

// LoadCtx is Load with the caller's context.
func (c *StoreClient) LoadCtx(ctx context.Context, key string) (campaign.Entry, bool) {
	res, err := c.rpc.do(ctx, "entry.get", http.MethodGet, c.entryURL(key), nil, maxEntryBytes, false)
	if err != nil {
		metrics.Add("dist.client.get_err", 1)
		return campaign.Entry{}, false
	}
	if res.status != http.StatusOK {
		return campaign.Entry{}, false
	}
	e, err := campaign.DecodeEntry(res.body)
	if err != nil {
		// A truncated or torn gob body decodes to an error, never a
		// partial entry served as truth.
		metrics.Add("dist.client.decode_err", 1)
		return campaign.Entry{}, false
	}
	return e, true
}

// Store implements campaign.Tier: encode and upload a computed entry.
// Best-effort by contract — a failure is counted and the entry kept for
// Publish, never propagated.
func (c *StoreClient) Store(e campaign.Entry) {
	c.StoreCtx(context.Background(), e)
}

// StoreCtx is Store with the caller's context.
func (c *StoreClient) StoreCtx(ctx context.Context, e campaign.Entry) {
	if err := c.put(ctx, e); err != nil {
		metrics.Add("dist.client.put_err", 1)
		c.mu.Lock()
		c.unsent[e.Key] = e
		c.mu.Unlock()
	}
}

// Publish puts key's entry if its write-through failed. A nil error
// means the store holds whatever this client computed under key; an
// error means that entry is still unsent and kept for the next call.
func (c *StoreClient) Publish(ctx context.Context, key string) error {
	c.mu.Lock()
	e, ok := c.unsent[key]
	c.mu.Unlock()
	if !ok {
		return nil
	}
	if err := c.put(ctx, e); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.unsent, key)
	c.mu.Unlock()
	return nil
}

// put uploads one entry.
func (c *StoreClient) put(ctx context.Context, e campaign.Entry) error {
	data, err := campaign.EncodeEntry(e)
	if err != nil {
		metrics.Add("dist.client.encode_err", 1)
		return err
	}
	res, err := c.rpc.do(ctx, "entry.put", http.MethodPut, c.entryURL(e.Key), data, 1<<16, false)
	if err != nil {
		return err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("dist: put returned %d", res.status)
	}
	return nil
}
