package metrics

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServerStartServeCloseRace is the shutdown-ordering regression
// test: requests in flight while Close or Shutdown runs must never
// observe a nil listener, Close and Shutdown must be idempotent with
// each other, and Start after either must fail instead of leaking a
// listener.
func TestServerStartServeCloseRace(t *testing.T) {
	for iter := 0; iter < 15; iter++ {
		srv := NewServer()
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("start: %v", err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					// Errors are expected once Close wins the race; the
					// assertion is "no panic, no race", enforced by -race.
					resp, err := http.Get("http://" + addr + "/stats")
					if err != nil {
						return
					}
					resp.Body.Close()
					resp, err = http.Post("http://"+addr+"/metrics", "text/plain",
						strings.NewReader("x"))
					if err != nil {
						return
					}
					resp.Body.Close()
				}
			}()
		}
		wg.Add(1)
		go func(graceful bool) {
			defer wg.Done()
			if graceful {
				srv.Shutdown(context.Background()) //nolint:errcheck
			} else {
				srv.Close() //nolint:errcheck
			}
		}(iter%2 == 0)
		wg.Wait()
		if err := srv.Close(); err != nil {
			t.Fatalf("double close: %v", err)
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown after close: %v", err)
		}
		if _, err := srv.Start("127.0.0.1:0"); err == nil {
			t.Fatal("start after close succeeded")
		}
	}
	// Close before Start is a no-op, not a panic.
	s := NewServer()
	if err := s.Close(); err != nil {
		t.Fatalf("close before start: %v", err)
	}
	if _, err := s.Start("127.0.0.1:0"); err == nil {
		t.Fatal("start after early close succeeded")
	}
}

// blockingRunner runs campaigns that block until released (or their
// context dies), reporting nPoints points on release.
type blockingRunner struct {
	nPoints int

	mu      sync.Mutex
	started []string // tenant order of started campaigns
	release chan struct{}
}

func newBlockingRunner(nPoints int) *blockingRunner {
	return &blockingRunner{nPoints: nPoints, release: make(chan struct{})}
}

func (b *blockingRunner) RunCampaign(ctx context.Context, spec json.RawMessage, onPoint func(int, int)) (json.RawMessage, error) {
	var s struct {
		Tenant string `json:"tenant"`
	}
	json.Unmarshal(spec, &s) //nolint:errcheck
	b.mu.Lock()
	b.started = append(b.started, s.Tenant)
	b.mu.Unlock()
	select {
	case <-b.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	for i := 0; i < b.nPoints; i++ {
		onPoint(i, b.nPoints)
	}
	return json.RawMessage(`{"ok":true}`), nil
}

func (b *blockingRunner) startedTenants() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.started...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFrontDoorSubmitStatusStream drives the full lifecycle over HTTP:
// submit, status polling, and the SSE stream through to the terminal
// event.
func TestFrontDoorSubmitStatusStream(t *testing.T) {
	runner := newBlockingRunner(3)
	fd := NewFrontDoor(runner, 1, 8)
	srv := NewServer()
	srv.FrontDoor = fd
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	body, _ := json.Marshal(map[string]any{"tenant": "t1", "spec": map[string]any{"tenant": "t1"}})
	resp, err := http.Post(base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status := func() CampaignStatus {
		resp, err := http.Get(base + "/v1/campaigns/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st CampaignStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitFor(t, "campaign running", func() bool { return status().State == StateRunning })

	// Open the stream while running, then release the runner and read
	// through to the terminal event.
	sresp, err := http.Get(base + "/v1/campaigns/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	close(runner.release)

	var events []CampaignEvent
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev CampaignEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("stream did not end at done: %+v", last)
	}
	points := 0
	for _, ev := range events {
		if ev.Type == "point" {
			points++
		}
	}
	if points != 3 {
		t.Fatalf("streamed %d point events, want 3", points)
	}

	st := status()
	if st.State != StateDone || st.Completed != 3 || string(st.Summary) != `{"ok":true}` {
		t.Fatalf("final status: %+v", st)
	}

	// The list endpoint sees it too.
	lresp, err := http.Get(base + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []CampaignStatus
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("list: %+v", list)
	}
}

// TestFrontDoorAdmissionAndFairShare: MaxQueue rejects with 429, and a
// freed slot goes to the tenant with the least weighted usage.
func TestFrontDoorAdmissionAndFairShare(t *testing.T) {
	runner := newBlockingRunner(0)
	fd := NewFrontDoor(runner, 2, 2)
	defer fd.Close()

	spec := func(tenant string) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"tenant":%q}`, tenant))
	}
	// Tenant a holds both slots. Only then are a's third campaign and
	// b's first queued — with a slot free, starting a's next at once is
	// what a work-conserving dispatcher should do, so the fair-share
	// decision is only a decision with both candidates waiting. One slot
	// is then handed back (a send releases exactly one campaign, the
	// close at the end all of them): a holds 1, b holds 0, b must start.
	for i := 0; i < 2; i++ {
		if _, err := fd.Submit("a", spec("a")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "both slots held", func() bool { return len(runner.startedTenants()) == 2 })
	if _, err := fd.Submit("a", spec("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Submit("b", spec("b")); err != nil {
		t.Fatal(err)
	}
	runner.release <- struct{}{}
	waitFor(t, "third campaign running", func() bool { return len(runner.startedTenants()) == 3 })
	if got := runner.startedTenants(); got[2] != "b" {
		t.Fatalf("fair share violated: started order %v, want b third", got)
	}

	// One a-campaign still queued; queue cap 2 leaves room for one more.
	if _, err := fd.Submit("c", spec("c")); err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Submit("d", spec("d")); err != errQueueFull {
		t.Fatalf("over-quota submit: %v, want errQueueFull", err)
	}

	close(runner.release)
	waitFor(t, "all campaigns done", func() bool {
		for _, st := range fd.List() {
			if st.State != StateDone {
				return false
			}
		}
		return true
	})
	if n := len(runner.startedTenants()); n != 5 {
		t.Fatalf("ran %d campaigns, want 5", n)
	}
}

// TestFrontDoorTiesBreakByName: of queued tenants running equally many
// campaigns, the first by name starts next, whatever order they queued in.
func TestFrontDoorTiesBreakByName(t *testing.T) {
	runner := newBlockingRunner(0)
	fd := NewFrontDoor(runner, 1, 4)
	defer fd.Close()
	submit := func(tenant string) {
		if _, err := fd.Submit(tenant, json.RawMessage(fmt.Sprintf(`{"tenant":%q}`, tenant))); err != nil {
			t.Fatal(err)
		}
	}
	submit("z")
	waitFor(t, "z running", func() bool { return len(runner.startedTenants()) == 1 })
	submit("y")
	submit("x")
	for n := 2; n <= 3; n++ {
		runner.release <- struct{}{}
		waitFor(t, "next campaign running", func() bool { return len(runner.startedTenants()) == n })
	}
	if got := fmt.Sprint(runner.startedTenants()); got != "[z x y]" {
		t.Errorf("started %s, want [z x y]", got)
	}
	close(runner.release)
}

// TestFrontDoorCloseUnblocksStreams: closing the server cancels running
// campaigns and ends open event streams instead of hanging Close.
func TestFrontDoorCloseUnblocksStreams(t *testing.T) {
	runner := newBlockingRunner(0) // never released: only ctx ends it
	fd := NewFrontDoor(runner, 1, 8)
	srv := NewServer()
	srv.FrontDoor = fd
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	id, err := fd.Submit("t", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "campaign running", func() bool {
		st, _ := fd.Status(id)
		return st.State == StateRunning
	})
	sresp, err := http.Get("http://" + addr + "/v1/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an open stream")
	}
	st, _ := fd.Status(id)
	if st.State != StateFailed {
		t.Fatalf("campaign state after shutdown: %s, want failed", st.State)
	}
	if _, err := fd.Submit("t", json.RawMessage(`{}`)); err == nil {
		t.Fatal("submit after close succeeded")
	}
}
