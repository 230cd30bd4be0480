package warehouse

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/metrics"
)

// Client ingests records into a remote warehouse over HTTP — the
// Appender a worker node uses. Delivery is at-least-once (a timed-out
// POST may have landed), which the warehouse's first-wins dedupe makes
// exactly-once in effect; the client therefore retries freely.
//
// The client deliberately uses a plain transport, never a chaos-wrapped
// one: observability records must survive the faults they are
// describing.
type Client struct {
	base   string // e.g. "http://127.0.0.1:7610/warehouse"
	client *http.Client
}

// NewClient creates a client for the warehouse API rooted at base.
func NewClient(base string) *Client {
	return &Client{base: base, client: &http.Client{Timeout: 10 * time.Second}}
}

// Append ships one record (a batch of one; use AppendBatch on hot
// paths).
func (c *Client) Append(rec Record) error { return c.AppendBatch([]Record{rec}) }

// AppendBatch ships records, retrying transient failures. Each record is
// encoded on its own, as Warehouse.AppendBatch does: one json.Marshal
// refuses (a ±Inf or NaN scalar) is skipped alone, counted in
// warehouse.unencodable and named in the returned error, and the rest of
// the batch is shipped.
func (c *Client) AppendBatch(recs []Record) error {
	var errs []error // one per record json.Marshal refuses, then the POST's
	body := []byte{'['}
	for _, rec := range recs {
		payload, err := json.Marshal(rec)
		if err != nil {
			errs = append(errs, fmt.Errorf("warehouse client: encode %s/%d/%s: %w", rec.Campaign, rec.Point, rec.Stage, err))
			continue
		}
		if len(body) > 1 {
			body = append(body, ',')
		}
		body = append(body, payload...)
	}
	if len(errs) > 0 {
		metrics.Add("warehouse.unencodable", int64(len(errs)))
	}
	if len(body) > 1 {
		if err := c.post(append(body, ']')); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// post sends one encoded batch, up to three times.
func (c *Client) post(body []byte) error {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 25 * time.Millisecond)
		}
		resp, err := c.client.Post(c.base+"/v1/records", "application/json", bytes.NewReader(body))
		if err != nil {
			last = err
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		last = fmt.Errorf("warehouse client: %s", resp.Status)
	}
	return last
}
