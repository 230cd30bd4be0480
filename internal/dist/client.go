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
// connection. When the store is unreachable, Store falls back to an
// in-memory backlog that is flushed on the next healthy RPC (or by
// Backfill), so a partitioned worker keeps computing locally and
// publishes its results when the link heals.
type StoreClient struct {
	base string
	rpc  *rpc

	backMu  sync.Mutex
	backlog []campaign.Entry
	backSet map[string]bool
}

// ClientConfig parameterizes a store client.
type ClientConfig struct {
	// RPC tunes deadlines, retries, and the chaos transport.
	RPC RPCConfig
}

// backlogCap bounds the offline backlog; beyond it the oldest entries
// are dropped (they cost one recompute, never correctness).
const backlogCap = 1024

// NewStoreClient creates a client for a store base URL
// (e.g. "http://127.0.0.1:7600") with default hardening.
func NewStoreClient(baseURL string) *StoreClient {
	return NewStoreClientCfg(baseURL, ClientConfig{})
}

// NewStoreClientCfg creates a client with explicit RPC hardening.
func NewStoreClientCfg(baseURL string, cfg ClientConfig) *StoreClient {
	return &StoreClient{
		base:    baseURL,
		rpc:     newRPC(cfg.RPC, "store"),
		backSet: map[string]bool{},
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
	c.flush(ctx, 2) // the store answered: opportunistically backfill
	return e, true
}

// Store implements campaign.Tier: encode and upload a computed entry.
// Best-effort by contract — failures are counted and the entry queued
// in the backlog for backfill, never propagated.
func (c *StoreClient) Store(e campaign.Entry) {
	c.StoreCtx(context.Background(), e)
}

// StoreCtx is Store with the caller's context.
func (c *StoreClient) StoreCtx(ctx context.Context, e campaign.Entry) {
	if err := c.put(ctx, e); err != nil {
		metrics.Add("dist.client.put_err", 1)
		c.park(e)
		return
	}
	c.flush(ctx, 2)
}

// put uploads one entry (no backlog interaction).
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

// park queues an entry for backfill once the store answers again.
func (c *StoreClient) park(e campaign.Entry) {
	c.backMu.Lock()
	defer c.backMu.Unlock()
	if c.backSet[e.Key] {
		return
	}
	if len(c.backlog) >= backlogCap {
		drop := c.backlog[0]
		c.backlog = c.backlog[1:]
		delete(c.backSet, drop.Key)
		metrics.Add("dist.client.backlog_dropped", 1)
	}
	c.backlog = append(c.backlog, e)
	c.backSet[e.Key] = true
	metrics.Add("dist.client.backlogged", 1)
}

// Parked reports whether key's entry is waiting in the backlog — i.e.
// computed here but not yet visible in the store.
func (c *StoreClient) Parked(key string) bool {
	c.backMu.Lock()
	defer c.backMu.Unlock()
	return c.backSet[key]
}

// PendingBacklog reports how many computed entries await backfill.
func (c *StoreClient) PendingBacklog() int {
	c.backMu.Lock()
	defer c.backMu.Unlock()
	return len(c.backlog)
}

// Backfill pushes the whole backlog to the store, stopping at the first
// failure (the store is presumably still unreachable). Returns how many
// entries were published and how many remain in the backlog.
func (c *StoreClient) Backfill(ctx context.Context) (flushed, pending int) {
	return c.flush(ctx, 0)
}

// flush publishes backlogged entries from the head of the backlog, stopping
// at the first failed put and, when limit > 0, after limit entries. The
// tier methods flush a couple after any healthy RPC — the reconnect
// signal that costs no extra probing, bounded so a tier call never turns
// into a long flush; Backfill flushes them all.
func (c *StoreClient) flush(ctx context.Context, limit int) (flushed, pending int) {
	for limit <= 0 || flushed < limit {
		c.backMu.Lock()
		if len(c.backlog) == 0 {
			c.backMu.Unlock()
			return flushed, 0
		}
		e := c.backlog[0]
		c.backMu.Unlock()

		if err := c.put(ctx, e); err != nil {
			break
		}
		c.backMu.Lock()
		// Pop e if still at the head (a concurrent flush may have raced
		// us to it; either way it is published).
		if len(c.backlog) > 0 && c.backlog[0].Key == e.Key {
			c.backlog = c.backlog[1:]
			delete(c.backSet, e.Key)
		}
		c.backMu.Unlock()
		flushed++
		metrics.Add("dist.client.backfilled", 1)
	}
	return flushed, c.PendingBacklog()
}
