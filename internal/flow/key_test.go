package flow

import (
	"reflect"
	"testing"
)

func TestKeyNormalizesDefaults(t *testing.T) {
	zero := Options{}
	explicit := Options{TargetFreqGHz: 0.5, PlaceMoves: 60}
	if zero.Key() != explicit.Key() {
		t.Errorf("default-normalized options should share a key:\n%q\n%q",
			zero.Key(), explicit.Key())
	}
}

func TestKeyDistinguishesEveryField(t *testing.T) {
	base := Options{TargetFreqGHz: 0.5, Seed: 1, PlaceMoves: 60}
	variants := map[string]Options{}
	add := func(name string, mut func(*Options)) {
		o := base
		mut(&o)
		variants[name] = o
	}
	add("freq", func(o *Options) { o.TargetFreqGHz = 0.6 })
	add("seed", func(o *Options) { o.Seed = 2 })
	add("synth_effort", func(o *Options) { o.SynthEffort = 2 })
	add("max_fanout", func(o *Options) { o.MaxFanout = 8 })
	add("utilization", func(o *Options) { o.Utilization = 0.7 })
	add("place_moves", func(o *Options) { o.PlaceMoves = 80 })
	add("partitions", func(o *Options) { o.Partitions = 4 })
	add("tracks", func(o *Options) { o.TracksPerEdge = 30 })
	add("route_effort", func(o *Options) { o.RouteEffort = 2 })
	add("route_iters", func(o *Options) { o.RouteIters = 10 })
	add("derate", func(o *Options) { o.DeratePct = 3 })

	// The deprecated PlaceWorkers and RouteTiles must NOT change the key:
	// the flow ignores them.
	dep := base
	dep.PlaceWorkers, dep.RouteTiles = 4, 4
	if dep.Key() != base.Key() {
		t.Errorf("PlaceWorkers/RouteTiles changed the key: %q vs %q", dep.Key(), base.Key())
	}

	seen := map[string]string{base.Key(): "base"}
	for name, o := range variants {
		k := o.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("options differing in %s collide with %s: %q", name, prev, k)
		}
		seen[k] = name
	}
}

// TestPrefixKeyCoversEveryField walks Options by reflection: every field
// but the five a post-synthesis prefix does not depend on must change the
// prefix key, so a field added later that place, cts or routing reads
// cannot let two runs share a prefix they do not have in common.
func TestPrefixKeyCoversEveryField(t *testing.T) {
	shared := map[string]bool{
		"TargetFreqGHz": true, "SynthEffort": true, "DeratePct": true,
		"PlaceWorkers": true, "RouteTiles": true,
	}
	base := Options{}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		o := base
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(0.7)
		default:
			t.Fatalf("Options.%s is a %s: teach this test to set it", f.Name, v.Kind())
		}
		changed := o.PrefixOptions() != base.PrefixOptions()
		if changed == shared[f.Name] {
			t.Errorf("Options.%s: prefix key changed = %v, want %v", f.Name, changed, !shared[f.Name])
		}
	}
}
