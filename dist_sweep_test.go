package repro

import (
	"os"
	"path/filepath"
	"testing"
)

// copyDir clones a flat journal directory, so each mode resumes from the
// same bytes.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestDistSweepResumeMatchesSweep: a narrowed rerun over a journal written
// by a wider sweep reports the same resume accounting in both modes — the
// points it asks for replayed, the rest skipped as unknown.
func TestDistSweepResumeMatchesSweep(t *testing.T) {
	cfg := obsSweepConfig(t)
	cfg.Seeds = []int64{1, 2, 3, 4}
	cfg.JournalDir = t.TempDir()
	if _, err := Sweep(cfg); err != nil {
		t.Fatal(err)
	}
	wide := len(cfg.Freqs) * len(cfg.Seeds)

	cfg.Seeds = []int64{1, 2}
	narrow := len(cfg.Freqs) * len(cfg.Seeds)
	single := cfg
	single.JournalDir = copyDir(t, cfg.JournalDir)
	sres, err := Sweep(single)
	if err != nil {
		t.Fatal(err)
	}
	distCfg := DistSweepConfig{SweepConfig: cfg, Nodes: 2}
	distCfg.JournalDir = copyDir(t, cfg.JournalDir)
	dres, err := DistSweep(distCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ResumeStats{Replayed: narrow, SkippedUnknown: wide - narrow}
	if sres.Resume != want {
		t.Fatalf("Sweep resume %+v, want %+v", sres.Resume, want)
	}
	if dres.Resume != sres.Resume {
		t.Fatalf("DistSweep resume %+v, Sweep %+v", dres.Resume, sres.Resume)
	}
}
