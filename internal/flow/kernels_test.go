package flow

import (
	"reflect"
	"testing"
)

// TestParallelKernelsWorkerInvariant: PlaceWorkers and RouteTiles once
// selected the parallel place and route kernels, which are gone. A run
// with soc_single's settings of them (2, 4) must return the zero-field
// run's summary, under the zero-field run's key.
func TestParallelKernelsWorkerInvariant(t *testing.T) {
	d := tiny(41)
	base := Options{TargetFreqGHz: 0.4, Seed: 7}
	set := base
	set.PlaceWorkers, set.RouteTiles = 2, 4
	if set.Key() != base.Key() {
		t.Fatalf("keys differ:\n%q\n%q", set.Key(), base.Key())
	}
	ref, got := Run(d, base).Summary(), Run(d, set).Summary()
	// The options differ by construction; everything downstream of them
	// must not.
	got.Options = ref.Options
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("PlaceWorkers 2, RouteTiles 4: flow result diverged from the zero-field run")
	}
}
