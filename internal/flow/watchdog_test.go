package flow

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/sched"
)

// stallSynth swaps the synth stage's compute for one that wedges until
// its context dies or, with d > 0, until d has passed and the tool comes
// back and computes. The stage table is package state, so tests that use
// it must not run in parallel.
func stallSynth(t *testing.T, d time.Duration) {
	t.Helper()
	orig := stages[stSynth].compute
	t.Cleanup(func() { stages[stSynth].compute = orig })
	stages[stSynth].compute = func(ctx context.Context, a *artifacts) {
		if d <= 0 {
			<-ctx.Done()
			return
		}
		select {
		case <-time.After(d):
			orig(ctx, a)
		case <-ctx.Done():
		}
	}
}

// TestHangReapedByWatchdog: a stage that never comes back is reaped by
// the stage watchdog; the run aborts at that stage with an error the
// campaign layer can match, and the reaped stage publishes nothing.
func TestHangReapedByWatchdog(t *testing.T) {
	stallSynth(t, 0)
	res, err := RunCfg(context.Background(), tiny(1), Options{TargetFreqGHz: 0.4, Seed: 2}, RunConfig{
		StageTimeout: 20 * time.Millisecond,
	})
	if !errors.Is(err, sched.ErrHung) {
		t.Fatalf("err = %v, want sched.ErrHung", err)
	}
	if !res.Aborted || res.FailedStage != "synth" {
		t.Fatalf("result aborted=%t failed=%q, want true, synth", res.Aborted, res.FailedStage)
	}
	if res.Netlist != nil {
		t.Fatal("reaped synth stage must not publish a netlist")
	}
}

// TestHangRecoversCleanly: a stage that stalls and then comes back
// delays the run but must not change its outcome — with or without a
// watchdog whose deadline outlasts the stall.
func TestHangRecoversCleanly(t *testing.T) {
	opts := Options{TargetFreqGHz: 0.35, Seed: 3}
	want := Run(tiny(2), opts)
	stallSynth(t, time.Millisecond)
	for _, timeout := range []time.Duration{0, 10 * time.Second} {
		got, err := RunCfg(context.Background(), tiny(2), opts, RunConfig{StageTimeout: timeout})
		if err != nil {
			t.Fatalf("timeout %v: %v", timeout, err)
		}
		if got.AreaUm2 != want.AreaUm2 || got.WNSPs != want.WNSPs ||
			got.MaxFreqGHz != want.MaxFreqGHz || got.Met != want.Met {
			t.Fatalf("timeout %v: stalled run differs from clean run", timeout)
		}
	}
}

// TestHangReleasedByRunCancel: with no watchdog, the only way out of a
// wedged stage is cancelling the run itself.
func TestHangReleasedByRunCancel(t *testing.T) {
	stallSynth(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	res, err := RunCfg(ctx, tiny(1), Options{TargetFreqGHz: 0.4, Seed: 2}, RunConfig{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Aborted || res.FailedStage != "synth" {
		t.Fatalf("result aborted=%t failed=%q, want true, synth", res.Aborted, res.FailedStage)
	}
}
