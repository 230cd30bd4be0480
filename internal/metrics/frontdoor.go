package metrics

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sched"
)

// CampaignRunner executes one submitted campaign. The front door is
// deliberately ignorant of flows and netlists — the spec is opaque JSON
// the runner parses, and the concrete runner (a local sweep, a dist
// coordinator) is injected by the binary that owns the server. onPoint
// is called as points complete so the front door can stream progress.
type CampaignRunner interface {
	RunCampaign(ctx context.Context, spec json.RawMessage, onPoint func(index, total int)) (summary json.RawMessage, err error)
}

// RunnerFunc adapts a function to CampaignRunner.
type RunnerFunc func(ctx context.Context, spec json.RawMessage, onPoint func(index, total int)) (json.RawMessage, error)

// RunCampaign implements CampaignRunner.
func (f RunnerFunc) RunCampaign(ctx context.Context, spec json.RawMessage, onPoint func(index, total int)) (json.RawMessage, error) {
	return f(ctx, spec, onPoint)
}

// Campaign states, in lifecycle order.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// CampaignStatus is the externally visible state of one submission.
type CampaignStatus struct {
	ID        string          `json:"id"`
	Tenant    string          `json:"tenant"`
	State     string          `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Started   time.Time       `json:"started,omitzero"`
	Finished  time.Time       `json:"finished,omitzero"`
	Points    int             `json:"points,omitempty"`
	Completed int             `json:"completed,omitempty"`
	Error     string          `json:"error,omitempty"`
	Summary   json.RawMessage `json:"summary,omitempty"`
}

// CampaignEvent is one SSE stream event: a state transition or a point
// completion.
type CampaignEvent struct {
	CampaignID string `json:"campaign_id"`
	Type       string `json:"type"` // "state" | "point"
	State      string `json:"state,omitempty"`
	Point      int    `json:"point,omitempty"`
	Total      int    `json:"total,omitempty"`
	Completed  int    `json:"completed,omitempty"`
	Error      string `json:"error,omitempty"`
}

// campaign is the front door's internal record.
type campaign struct {
	status CampaignStatus
	spec   json.RawMessage
	subs   map[chan CampaignEvent]bool
}

// FrontDoor is the campaign-as-a-service submission surface mounted on
// the METRICS server:
//
//	POST /v1/campaigns             submit {tenant, spec}; 429 over quota
//	GET  /v1/campaigns             all campaigns, newest first
//	GET  /v1/campaigns/{id}        one campaign's status
//	GET  /v1/campaigns/{id}/events SSE stream of point completions and
//	                               state transitions, ending at a
//	                               terminal state
//
// Admission control is two-layer: MaxQueue bounds accepted-but-unstarted
// work (beyond it, submits are rejected, not buffered), and Slots bounds
// concurrently running campaigns, arbitrated across tenants by a
// sched.Ledger — the tenant running the fewest campaigns starts next,
// deterministically, so one chatty tenant cannot starve the rest.
type FrontDoor struct {
	// Runner executes campaigns (required).
	Runner CampaignRunner
	// Slots bounds concurrently running campaigns (<=0 = 1).
	Slots int
	// MaxQueue bounds queued campaigns (<=0 = 16).
	MaxQueue int

	mu        sync.Mutex
	cond      *sync.Cond
	ledger    *sched.Ledger
	campaigns map[string]*campaign
	order     []string            // submission order, for listing
	queues    map[string][]string // per-tenant FIFO of queued IDs
	queued    int
	nextID    int
	closed    bool
	cancel    context.CancelFunc
	done      chan struct{}
	running   sync.WaitGroup
}

// NewFrontDoor builds a front door and starts its dispatcher.
func NewFrontDoor(runner CampaignRunner, slots, maxQueue int) *FrontDoor {
	if slots <= 0 {
		slots = 1
	}
	if maxQueue <= 0 {
		maxQueue = 16
	}
	fd := &FrontDoor{
		Runner: runner, Slots: slots, MaxQueue: maxQueue,
		ledger:    sched.NewLedger(slots),
		campaigns: map[string]*campaign{},
		queues:    map[string][]string{},
		done:      make(chan struct{}),
	}
	fd.cond = sync.NewCond(&fd.mu)
	ctx, cancel := context.WithCancel(context.Background())
	fd.cancel = cancel
	go fd.dispatch(ctx)
	return fd
}

// Close stops the dispatcher, cancels running campaigns, and wakes
// every stream so handler goroutines drain. Idempotent.
func (fd *FrontDoor) Close() {
	fd.mu.Lock()
	if fd.closed {
		fd.mu.Unlock()
		return
	}
	fd.closed = true
	close(fd.done)
	fd.cond.Broadcast()
	fd.mu.Unlock()
	fd.cancel()
	fd.running.Wait()
}

// mount registers the endpoints (called by Server.Start).
func (fd *FrontDoor) mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/campaigns", fd.handleCampaigns)
	mux.HandleFunc("/v1/campaigns/", fd.handleCampaign)
}

// submitRequest is the POST /v1/campaigns body.
type submitRequest struct {
	Tenant string          `json:"tenant"`
	Spec   json.RawMessage `json:"spec"`
}

// maxSubmitBytes bounds a campaign submission: a spec is a sweep
// description (freqs, seeds, options), kilobytes at most.
const maxSubmitBytes = 1 << 20

// Submit queues one campaign and returns its ID.
func (fd *FrontDoor) Submit(tenant string, spec json.RawMessage) (string, error) {
	if tenant == "" {
		tenant = "default"
	}
	fd.mu.Lock()
	defer fd.mu.Unlock()
	if fd.closed {
		return "", fmt.Errorf("metrics: front door is closed")
	}
	if fd.queued >= fd.MaxQueue {
		Add("metrics.frontdoor.rejected", 1)
		return "", errQueueFull
	}
	fd.nextID++
	id := fmt.Sprintf("c-%d", fd.nextID)
	c := &campaign{
		status: CampaignStatus{
			ID: id, Tenant: tenant, State: StateQueued, Submitted: time.Now(),
		},
		spec: spec,
		subs: map[chan CampaignEvent]bool{},
	}
	fd.campaigns[id] = c
	fd.order = append(fd.order, id)
	fd.queues[tenant] = append(fd.queues[tenant], id)
	fd.queued++
	Add("metrics.frontdoor.submitted", 1)
	fd.cond.Broadcast()
	return id, nil
}

var errQueueFull = fmt.Errorf("metrics: campaign queue is full")

// Status returns one campaign's status.
func (fd *FrontDoor) Status(id string) (CampaignStatus, bool) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	c, ok := fd.campaigns[id]
	if !ok {
		return CampaignStatus{}, false
	}
	return c.status, true
}

// List returns every campaign's status, newest first.
func (fd *FrontDoor) List() []CampaignStatus {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	out := make([]CampaignStatus, 0, len(fd.order))
	for i := len(fd.order) - 1; i >= 0; i-- {
		out = append(out, fd.campaigns[fd.order[i]].status)
	}
	return out
}

// dispatch is the admission loop: whenever a slot is free and work is
// queued, the fair-share pick among tenants with queued campaigns
// starts next.
func (fd *FrontDoor) dispatch(ctx context.Context) {
	for {
		fd.mu.Lock()
		var c *campaign
		for {
			if fd.closed {
				fd.mu.Unlock()
				return
			}
			if c = fd.pickLocked(); c != nil {
				break
			}
			fd.cond.Wait()
		}
		c.status.State = StateRunning
		c.status.Started = time.Now()
		fd.queued--
		// Add under fd.mu, where Close cannot yet have set closed: an
		// Add racing Close's Wait on a zero counter is a data race.
		fd.running.Add(1)
		fd.mu.Unlock()
		fd.emit(c.status.ID, CampaignEvent{Type: "state", State: StateRunning})
		Add("metrics.frontdoor.started", 1)

		go func(c *campaign) {
			defer fd.running.Done()
			fd.run(ctx, c)
		}(c)
	}
}

// pickLocked chooses the next campaign to start, or nil when no slot is
// free or nothing is queued. Caller holds fd.mu.
func (fd *FrontDoor) pickLocked() *campaign {
	tenants := make([]string, 0, len(fd.queues))
	for t, q := range fd.queues {
		if len(q) > 0 {
			tenants = append(tenants, t)
		}
	}
	if len(tenants) == 0 {
		return nil
	}
	sort.Strings(tenants)
	tenant, ok := fd.ledger.PickFair(tenants)
	if !ok || !fd.ledger.TryGrant(tenant) {
		return nil // every slot is busy; a Release will broadcast
	}
	id := fd.queues[tenant][0]
	fd.queues[tenant] = fd.queues[tenant][1:]
	return fd.campaigns[id]
}

// run executes one admitted campaign and settles its terminal state.
func (fd *FrontDoor) run(ctx context.Context, c *campaign) {
	id, tenant := c.status.ID, c.status.Tenant
	onPoint := func(index, total int) {
		fd.mu.Lock()
		c.status.Points = total
		c.status.Completed++
		completed := c.status.Completed
		fd.mu.Unlock()
		fd.emit(id, CampaignEvent{Type: "point", Point: index, Total: total, Completed: completed})
	}
	summary, err := fd.Runner.RunCampaign(ctx, c.spec, onPoint)

	fd.mu.Lock()
	c.status.Finished = time.Now()
	if err != nil {
		c.status.State = StateFailed
		c.status.Error = err.Error()
	} else {
		c.status.State = StateDone
		c.status.Summary = summary
	}
	state, errText := c.status.State, c.status.Error
	fd.mu.Unlock()
	if err != nil {
		Add("metrics.frontdoor.failed", 1)
	} else {
		Add("metrics.frontdoor.done", 1)
	}
	fd.emit(id, CampaignEvent{Type: "state", State: state, Error: errText})
	fd.ledger.Release(tenant)
	fd.mu.Lock()
	fd.cond.Broadcast() // a slot freed; the dispatcher may start the next
	fd.mu.Unlock()
}

// emit fans one event out to a campaign's subscribers. Slow consumers
// drop events rather than block the campaign (the status endpoint is
// the lossless view).
func (fd *FrontDoor) emit(id string, ev CampaignEvent) {
	ev.CampaignID = id
	fd.mu.Lock()
	defer fd.mu.Unlock()
	c, ok := fd.campaigns[id]
	if !ok {
		return
	}
	for ch := range c.subs {
		select {
		case ch <- ev:
		default:
			Add("metrics.frontdoor.event_dropped", 1)
		}
	}
}

// subscribe registers an event channel for a campaign; the returned
// cancel must be called by the stream handler.
func (fd *FrontDoor) subscribe(id string) (ch chan CampaignEvent, status CampaignStatus, ok bool, cancel func()) {
	fd.mu.Lock()
	defer fd.mu.Unlock()
	c, found := fd.campaigns[id]
	if !found {
		return nil, CampaignStatus{}, false, nil
	}
	ch = make(chan CampaignEvent, 256)
	c.subs[ch] = true
	return ch, c.status, true, func() {
		fd.mu.Lock()
		delete(c.subs, ch)
		fd.mu.Unlock()
	}
}

func (fd *FrontDoor) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req submitRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := fd.Submit(req.Tenant, req.Spec)
		switch {
		case err == errQueueFull:
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": id}) //nolint:errcheck
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(fd.List()) //nolint:errcheck
	default:
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
	}
}

func (fd *FrontDoor) handleCampaign(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/campaigns/")
	if id, ok := strings.CutSuffix(rest, "/events"); ok {
		fd.handleEvents(w, r, strings.TrimSuffix(id, "/"))
		return
	}
	st, ok := fd.Status(rest)
	if !ok {
		http.Error(w, "no such campaign", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st) //nolint:errcheck
}

// handleEvents is the SSE stream: current state first, then live
// events, ending at a terminal state or server shutdown (so Close never
// hangs on an open stream).
func (fd *FrontDoor) handleEvents(w http.ResponseWriter, r *http.Request, id string) {
	ch, st, ok, cancel := fd.subscribe(id)
	if !ok {
		http.Error(w, "no such campaign", http.StatusNotFound)
		return
	}
	defer cancel()
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	writeEvent := func(ev CampaignEvent) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return ev.Type != "state" || (ev.State != StateDone && ev.State != StateFailed)
	}
	if !writeEvent(CampaignEvent{CampaignID: id, Type: "state", State: st.State, Error: st.Error}) {
		return
	}
	for {
		select {
		case ev := <-ch:
			if !writeEvent(ev) {
				return
			}
		case <-r.Context().Done():
			return
		case <-fd.done:
			return
		}
	}
}
