// Benchmarks regenerating the paper's scoreboard, one sub-benchmark per
// row of Artifacts(), and timing the flow run every experiment
// multiplies.
//
// Run one artefact at paper scale with, e.g.:
//
//	go test -run '^$' -bench 'Artifacts/table1$' -benchtime 1x -scale=paper
package repro

import (
	"flag"
	"io"
	"testing"

	"repro/internal/flow"
)

var scaleFlag = flag.String("scale", "small", `experiment scale: "small" or "paper"`)

func benchScale() Scale {
	if *scaleFlag == "paper" {
		return Paper
	}
	return Small
}

// BenchmarkArtifacts regenerates every artefact, iteration i at seed
// i+1: at -benchtime 1x each row computes the report that
// testdata/figs_small.txt pins (EXPERIMENTS.md quotes at -scale=paper).
func BenchmarkArtifacts(b *testing.B) {
	for _, a := range Artifacts() {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := a.Run(io.Discard, benchScale(), int64(i+1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlowEndToEnd measures the plain SP&R flow run (the atomic
// unit all experiments multiply).
func BenchmarkFlowEndToEnd(b *testing.B) {
	design := designForScale(benchScale(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := flow.Run(design, flow.Options{TargetFreqGHz: 0.4, Seed: int64(i)})
		if res.AreaUm2 <= 0 {
			b.Fatal("flow failed")
		}
	}
}
