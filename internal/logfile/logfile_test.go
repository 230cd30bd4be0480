package logfile

import (
	"testing"

	"repro/internal/route"
)

func smallCorpus(t testing.TB, name string, runs int, seed int64) []Run {
	t.Helper()
	return Generate(CorpusSpec{Name: name, Runs: runs, Seed: seed, Designs: 2})
}

func TestGenerateCorpusMix(t *testing.T) {
	runs := smallCorpus(t, "artificial", 60, 1)
	if len(runs) != 60 {
		t.Fatalf("got %d runs", len(runs))
	}
	s := Summarize(runs)
	if s.Successes == 0 || s.Doomed == 0 {
		t.Fatalf("corpus must mix successes and doomed runs: %+v", s)
	}
	for _, r := range runs {
		if len(r.DRVs) < 10 {
			t.Fatalf("run %d has short series (%d)", r.ID, len(r.DRVs))
		}
		if r.Success != (r.Final < route.SuccessDRVThreshold) {
			t.Fatalf("run %d success flag inconsistent with final %d", r.ID, r.Final)
		}
		if r.Final != r.DRVs[len(r.DRVs)-1] {
			t.Fatalf("run %d final %d != last series value %d", r.ID, r.Final, r.DRVs[len(r.DRVs)-1])
		}
		if r.Corpus != "artificial" {
			t.Fatalf("run corpus %q", r.Corpus)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := smallCorpus(t, "artificial", 20, 5)
	b := smallCorpus(t, "artificial", 20, 5)
	for i := range a {
		if a[i].Final != b[i].Final {
			t.Fatal("same seed produced different corpora")
		}
	}
}

func TestCorporaDiffer(t *testing.T) {
	art := smallCorpus(t, "artificial", 30, 1)
	cpu := smallCorpus(t, "embedded-cpu", 30, 1)
	if Summarize(art).AvgInitial == Summarize(cpu).AvgInitial {
		t.Error("different design families should give different corpora")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Runs != 0 || s.AvgFinal != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}
