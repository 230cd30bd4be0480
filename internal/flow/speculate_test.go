package flow

import (
	"context"
	"reflect"
	"testing"
)

// TestAdoptOrComputeComputesWhatAChainDidNotProduce: for every stage a
// chain can run, a chain that stopped before it — cut short, as a
// supervised route chain stops before droute, or dead with its context —
// leaves the stage to be computed for real. The artifact equals the
// non-speculative run's and SpecStats.Committed does not count it; a
// chain that did produce the stage is adopted and counted.
func TestAdoptOrComputeComputesWhatAChainDidNotProduce(t *testing.T) {
	d := tiny(21)
	opts := Options{TargetFreqGHz: 0.4, Seed: 4}.withDefaults()
	ref := Run(d, opts)
	ctx := context.Background()
	dead, cancel := context.WithCancel(ctx)
	cancel()
	// upTo is the real run's artifact set with stages [synth, i) done.
	upTo := func(i int) *artifacts {
		a := &artifacts{opts: opts, n: d}
		for k := stSynth; k < i; k++ {
			stages[k].compute(ctx, a)
		}
		return a
	}
	// chainOn runs a chain over [from, to) on the upstream artifact of a.
	chainOn := func(ctx context.Context, from, to int, a *artifacts) *chain {
		c := newChain(from, to, &artifacts{opts: opts})
		c.cancel = func() {}
		(&specRun{}).runChain(ctx, c, a.n, "test")
		return c
	}
	artifact := func(i int, a *artifacts) any {
		return []any{stPlace: a.pl, stCTS: a.ct, stGroute: a.gr, stDroute: a.dr}[i]
	}
	want := []any{stPlace: ref.Place, stCTS: ref.CTS, stGroute: ref.Global, stDroute: ref.Route}

	for _, i := range []int{stPlace, stCTS, stGroute, stDroute} {
		from := stCTS
		if i == stPlace {
			from = stPlace
		}
		for _, tc := range []struct {
			name      string
			ctx       context.Context
			to        int
			committed int
		}{
			{"stopped short", ctx, i, 0},
			{"died", dead, stDroute + 1, 0},
			{"produced", ctx, stDroute + 1, 1},
		} {
			t.Run(stages[i].name+"/"+tc.name, func(t *testing.T) {
				a := upTo(from)
				c := chainOn(tc.ctx, from, tc.to, a)
				for k := from; k < i; k++ {
					stages[k].compute(ctx, a)
				}
				s := &specRun{}
				s.adoptOrCompute(ctx, i, a, c)
				if s.stats.Committed != tc.committed {
					t.Errorf("committed = %d, want %d", s.stats.Committed, tc.committed)
				}
				if got := artifact(i, a); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("%s artifact differs from the non-speculative run's", stages[i].name)
				}
			})
		}
	}
}
