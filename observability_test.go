// Observability integration: the warehouse's record set is the
// campaign's QoR result, restated — one record per (point, stage),
// scalars exactly equal to the sweep output, byte-identical no matter
// how many nodes computed it. These tests pin the ISSUE's acceptance
// clause at the API level; scripts/check.sh obs repeats it end-to-end
// through the CLIs.
package repro

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/warehouse"
)

func obsSweepConfig(t *testing.T) SweepConfig {
	t.Helper()
	return SweepConfig{
		Design: NewDesign(DefaultLibrary(), TinyDesign(1)),
		Freqs:  []float64{0.35, 0.5},
		Seeds:  []int64{1, 2},
	}
}

// flowStages is the stage set every completed point emits.
var flowStages = []string{"synth", "place", "cts", "groute", "droute", "sta"}

// TestWarehouseMatchesSweep: every (point, stage) yields exactly one
// record, and the sta record's scalars equal the campaign's own QoR
// output for that point.
func TestWarehouseMatchesSweep(t *testing.T) {
	wh, err := warehouse.Open("", journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	cfg := obsSweepConfig(t)
	cfg.Warehouse = wh
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pts, err := CampaignPoints(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := wh.Select(warehouse.Query{Campaign: campaign.ID(pts)})
	if want := len(pts) * len(flowStages); len(recs) != want {
		t.Fatalf("warehouse has %d records, want %d (%d points x %d stages)", len(recs), want, len(pts), len(flowStages))
	}
	byPoint := map[int]map[string]warehouse.Record{}
	for _, r := range recs {
		if byPoint[r.Point] == nil {
			byPoint[r.Point] = map[string]warehouse.Record{}
		}
		if _, dup := byPoint[r.Point][r.Stage]; dup {
			t.Fatalf("duplicate record for point %d stage %s", r.Point, r.Stage)
		}
		byPoint[r.Point][r.Stage] = r
	}
	for i, p := range res.Points {
		stages := byPoint[i]
		for _, s := range flowStages {
			if _, ok := stages[s]; !ok {
				t.Fatalf("point %d missing stage %s", i, s)
			}
		}
		sta := stages["sta"]
		if sta.Scalars["wns"] != p.WNSPs || sta.Scalars["maxfreq"] != p.MaxFreqGHz {
			t.Fatalf("point %d sta record (wns=%g maxfreq=%g) != sweep result (wns=%g maxfreq=%g)",
				i, sta.Scalars["wns"], sta.Scalars["maxfreq"], p.WNSPs, p.MaxFreqGHz)
		}
		if sta.FreqGHz != p.FreqGHz || sta.Seed != p.Seed {
			t.Fatalf("point %d record identity (freq=%g seed=%d) != sweep point (freq=%g seed=%d)",
				i, sta.FreqGHz, sta.Seed, p.FreqGHz, p.Seed)
		}
	}
}

// TestWarehouseDistByteIdentical: the canonical dump from a 3-node
// DistSweep equals the single-node dump byte for byte — node count is
// invisible in the warehouse, exactly as it is in the sweep output.
func TestWarehouseDistByteIdentical(t *testing.T) {
	single, _ := warehouse.Open("", journal.Options{})
	defer single.Close()
	scfg := obsSweepConfig(t)
	scfg.Warehouse = single
	sres, err := Sweep(scfg)
	if err != nil {
		t.Fatal(err)
	}

	distWh, _ := warehouse.Open("", journal.Options{})
	defer distWh.Close()
	dcfg := DistSweepConfig{SweepConfig: obsSweepConfig(t), Nodes: 3, Warehouse: distWh}
	dres, err := DistSweep(dcfg)
	if err != nil {
		t.Fatal(err)
	}

	var sout, dout bytes.Buffer
	sres.Print(&sout)
	dres.Print(&dout)
	if !bytes.Equal(sout.Bytes(), dout.Bytes()) {
		t.Fatalf("sweep output diverged:\n--- single\n%s--- dist\n%s", &sout, &dout)
	}

	pts, _ := CampaignPoints(scfg)
	id := campaign.ID(pts)
	var sdump, ddump bytes.Buffer
	single.DumpCanonical(&sdump, id)
	distWh.DumpCanonical(&ddump, id)
	if sdump.Len() == 0 {
		t.Fatal("single-node dump is empty")
	}
	if !bytes.Equal(sdump.Bytes(), ddump.Bytes()) {
		t.Fatalf("warehouse dump diverged across node counts:\n--- single\n%s--- dist\n%s", &sdump, &ddump)
	}
}

// TestDistSweepRefusesKillOnOneNode: "kill" cuts w0 for good and the
// coordinator parks points until a node rejoins, so on a single node the
// sweep could never return — it is refused before anything starts.
func TestDistSweepRefusesKillOnOneNode(t *testing.T) {
	_, err := DistSweep(DistSweepConfig{SweepConfig: obsSweepConfig(t), Nodes: 1, ChaosProfile: "kill"})
	if err == nil || !strings.Contains(err.Error(), "at least 2 nodes") {
		t.Fatalf("err = %v, want a refusal", err)
	}
}
