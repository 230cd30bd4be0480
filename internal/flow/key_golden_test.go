package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sprintfKey is the spelling Options.Key had from the first journal
// ever written until it was rebuilt on strconv. It stays here as the
// oracle: every key on disk was produced by this exact format string.
// The stop, rec and rm verbs take literal arguments: the options they
// spelled were zero in every key written, and the fields are gone. So do
// spec and stol: speculative keys were written, but no point of this
// tree can ask for one. pw and rt take literal zeros too: the parallel
// kernels they spelled are gone, so a point that sets PlaceWorkers or
// RouteTiles computes the serial result and must share the serial key,
// and a journal entry written with them set must miss.
func sprintfKey(o Options) string {
	o = o.withDefaults()
	return fmt.Sprintf("f=%g seed=%d se=%d mf=%d u=%g pm=%d part=%d tpe=%g re=%d ri=%d dr=%g stop=%d rec=%t rm=%g pw=%d rt=%d spec=%t stol=%g",
		o.TargetFreqGHz, o.Seed,
		o.SynthEffort, o.MaxFanout, o.Utilization, o.PlaceMoves,
		o.Partitions, o.TracksPerEdge, o.RouteEffort, o.RouteIters,
		o.DeratePct, 0, false, 0.0,
		0, 0, false, 0.0)
}

// TestKeyGolden pins the key grammar to literals: a respelled field
// orphans every journal, store WAL and warehouse record written so far.
func TestKeyGolden(t *testing.T) {
	full := Options{
		TargetFreqGHz: 0.65, Seed: -7, SynthEffort: 3, MaxFanout: 12,
		Utilization: 0.72, PlaceMoves: 80, Partitions: 4, TracksPerEdge: 28.5,
		RouteEffort: 2, RouteIters: 15, DeratePct: 1e-05, PlaceWorkers: 2,
		RouteTiles: 4,
	}
	const wantFull = "f=0.65 seed=-7 se=3 mf=12 u=0.72 pm=80 part=4 tpe=28.5 re=2 ri=15 dr=1e-05 stop=0 rec=false rm=0 pw=0 rt=0 spec=false stol=0"
	const wantZero = "f=0.5 seed=0 se=0 mf=0 u=0 pm=60 part=0 tpe=0 re=0 ri=0 dr=0 stop=0 rec=false rm=0 pw=0 rt=0 spec=false stol=0"
	if got := full.Key(); got != wantFull {
		t.Errorf("populated key\n got %q\nwant %q", got, wantFull)
	}
	if got := (Options{}).Key(); got != wantZero {
		t.Errorf("zero-value key\n got %q\nwant %q", got, wantZero)
	}
}

// keyFloats are the values where a float spelling can go wrong: signed
// zeros, subnormals, the extremes, the non-finite, both sides of %g's
// switch to exponent form, and values whose shortest round-trip form
// needs all 17 digits.
var keyFloats = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1e-5, 1e-4, 0.00009999999999999999, 0.00010000000000000002,
	999999, 1e6, 999999.9999999999, 1000000.0000000001, 1e20, 1e21, 1e22,
	0.1 + 0.2, 5e-324, 1.7976931348623157e308, 0.30000000000000004,
	123456789.12345679, 9007199254740993, 1.0000000000000002,
}

func randKeyFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return keyFloats[rng.Intn(len(keyFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64()) // any bit pattern: NaN payloads, subnormals
	case 2:
		return math.Round(rng.Float64()*1000) / 100 // the short decimals real sweeps use
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
}

func randKeyInt(rng *rand.Rand) int {
	if rng.Intn(4) == 0 {
		return int(rng.Uint64()) // full range, both signs
	}
	return rng.Intn(200) - 20
}

// TestKeyMatchesSprintfOracle compares the strconv spelling with the
// fmt.Sprintf one over the hard floats in every float field and 20 000
// random option points.
func TestKeyMatchesSprintfOracle(t *testing.T) {
	check := func(o Options) {
		t.Helper()
		if got, want := o.Key(), sprintfKey(o); got != want {
			t.Fatalf("key differs from the Sprintf spelling for %+v\n got %q\nwant %q", o, got, want)
		}
	}
	for _, f := range keyFloats {
		check(Options{
			TargetFreqGHz: f, Utilization: f, TracksPerEdge: f, DeratePct: f,
		})
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		check(Options{
			TargetFreqGHz: randKeyFloat(rng), Seed: int64(rng.Uint64()),
			SynthEffort: randKeyInt(rng), MaxFanout: randKeyInt(rng),
			Utilization: randKeyFloat(rng), PlaceMoves: randKeyInt(rng),
			Partitions: randKeyInt(rng), TracksPerEdge: randKeyFloat(rng),
			RouteEffort: randKeyInt(rng), RouteIters: randKeyInt(rng),
			DeratePct: randKeyFloat(rng), PlaceWorkers: randKeyInt(rng),
			RouteTiles: randKeyInt(rng),
		})
	}
}

var keySink string

func BenchmarkOptionsKey(b *testing.B) {
	o := Options{TargetFreqGHz: 0.45, Seed: 12345, SynthEffort: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = o.Key()
	}
}
