package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestFrontDoorSpecBounds submits each over-bound spec to a front door
// running the real runner: every one ends failed, naming the field,
// within a second — the runner rejects it before it allocates seeds,
// points, goroutines or listeners.
func TestFrontDoorSpecBounds(t *testing.T) {
	fd := metrics.NewFrontDoor(metrics.RunnerFunc(runCampaignSpec), 4, 16)
	defer fd.Close()
	cases := []struct{ field, spec string }{
		{"seeds", `{"design":"tiny","seeds":100000000}`},
		{"workers", `{"design":"tiny","workers":100000}`},
		{"dist_nodes", `{"design":"tiny","dist_nodes":1000}`},
		{"effort", `{"design":"tiny","effort":1000000}`},
		{"effort", `{"design":"tiny","effort":-1}`},
	}
	ids := make([]string, len(cases))
	for i, c := range cases {
		id, err := fd.Submit("t", json.RawMessage(c.spec))
		if err != nil {
			t.Fatalf("submit %s: %v", c.spec, err)
		}
		ids[i] = id
	}
	deadline := time.Now().Add(time.Second)
	for i, c := range cases {
		for {
			st, _ := fd.Status(ids[i])
			if st.State == metrics.StateFailed {
				if !strings.Contains(st.Error, c.field) {
					t.Errorf("%s: error %q does not name %s", c.spec, st.Error, c.field)
				}
				break
			}
			if st.State == metrics.StateDone || time.Now().After(deadline) {
				t.Fatalf("%s: state %s, want failed within a second", c.spec, st.State)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestFrontDoorCloseAbandonsRunningCampaign: closing a front door — what
// SIGTERM does — while the real runner is in a multi-second sweep returns
// within a second, and the campaign ends failed, naming the context.
func TestFrontDoorCloseAbandonsRunningCampaign(t *testing.T) {
	fd := metrics.NewFrontDoor(metrics.RunnerFunc(runCampaignSpec), 1, 1)
	id, err := fd.Submit("t", json.RawMessage(`{"design":"cpu","seeds":64,"workers":1}`))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st, _ := fd.Status(id)
		if st.State == metrics.StateRunning {
			break
		}
		if st.State != metrics.StateQueued || time.Now().After(deadline) {
			t.Fatalf("state %s, want running", st.State)
		}
	}
	start := time.Now()
	fd.Close()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with a campaign running, want <= 1s", took)
	}
	st, _ := fd.Status(id)
	if st.State != metrics.StateFailed || !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Errorf("campaign state %s, error %q; want failed naming %q", st.State, st.Error, context.Canceled)
	}
}

// FuzzCampaignSpec feeds arbitrary bytes to the front door's spec
// decoder. No input panics it, and every spec it accepts is within the
// bounds and expands to at most 3 × maxSpecSeeds points.
func FuzzCampaignSpec(f *testing.F) {
	for _, seed := range []string{
		`{"design":"tiny","freq":0.5,"seed":1,"seeds":4,"workers":2,"dist_nodes":0}`,
		`{"seeds":1024,"workers":256,"dist_nodes":16,"effort":3}`,
		`{"seeds":1025}`, `{"seeds":-5,"effort":0}`, `{"effort":4}`,
		`{"seeds":1e9}`, `{"seed":-9223372036854775808,"seeds":3}`,
		`{}`, `null`, ``, `[]`, `{"design":7}`, "\xff",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := decodeCampaignSpec(raw)
		if err != nil {
			return
		}
		if spec.Seeds < 1 || spec.Seeds > maxSpecSeeds || spec.Workers > maxSpecWorkers ||
			spec.DistNodes > maxSpecDistNodes || spec.Effort < 1 || spec.Effort > maxSpecEffort {
			t.Fatalf("accepted an out-of-bound spec: %+v", spec)
		}
		freqs, seeds := spec.Cross()
		if n := len(freqs) * len(seeds); n > 3*maxSpecSeeds {
			t.Fatalf("spec %+v expands to %d points", spec, n)
		}
	})
}
