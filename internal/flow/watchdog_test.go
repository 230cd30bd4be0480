package flow

import (
	"context"
	"errors"
	"reflect"
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

// readAll reads every value reachable from v, as a caller that walks a
// whole result would.
func readAll(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return
		}
		if v.Kind() == reflect.Pointer {
			if seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
		}
		readAll(v.Elem(), seen)
	case reflect.Struct:
		for i := range v.NumField() {
			readAll(v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			readAll(v.Index(i), seen)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			readAll(it.Key(), seen)
			readAll(it.Value(), seen)
		}
	case reflect.Float32, reflect.Float64:
		_ = v.Float()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		_ = v.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		_ = v.Uint()
	case reflect.Bool:
		_ = v.Bool()
	case reflect.String:
		_ = v.String()
	}
}

// TestReapedRunReturnsNoNetlist: a place compute that comes back after its
// reap and goes on writing coordinates, as a wedged tool's late work would,
// writes the netlist synthesis committed to the run's result. So a reaped
// run returns no netlist, and a caller that reads the whole result reads
// nothing the abandoned compute writes (run it under -race).
func TestReapedRunReturnsNoNetlist(t *testing.T) {
	orig := stages[stPlace].compute
	t.Cleanup(func() { stages[stPlace].compute = orig })
	done := make(chan struct{})
	stages[stPlace].compute = func(ctx context.Context, a *artifacts) {
		defer close(done)
		<-ctx.Done()
		for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); {
			for i := range a.n.Insts {
				a.n.Insts[i].X++
			}
		}
	}
	// No later test may share the process with the abandoned compute.
	t.Cleanup(func() { <-done })
	res, err := RunCfg(context.Background(), tiny(1), Options{TargetFreqGHz: 0.4, Seed: 2}, RunConfig{
		StageTimeout: 10 * time.Millisecond,
	})
	if !errors.Is(err, sched.ErrHung) {
		t.Fatalf("err = %v, want sched.ErrHung", err)
	}
	readAll(reflect.ValueOf(res), map[uintptr]bool{})
	if !res.Aborted || res.FailedStage != "place" {
		t.Fatalf("result aborted=%t failed=%q, want true, place", res.Aborted, res.FailedStage)
	}
	if res.Netlist != nil || res.Synth.Netlist != nil {
		t.Fatal("a reaped run returned the netlist its abandoned compute writes")
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
