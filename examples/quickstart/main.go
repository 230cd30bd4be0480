// Quickstart: generate a synthetic design, run the full SP&R flow, and
// inspect the QOR — the minimal end-to-end use of the public API.
package main

import (
	"fmt"

	"repro"
)

func main() {
	// A standard-cell library and a PULPino-like synthetic design.
	lib := repro.DefaultLibrary()
	design := repro.NewDesign(lib, repro.PulpinoProxy(1))
	stats := design.ComputeStats()
	fmt.Printf("generated %s: %d cells (%d registers), %d nets, logic depth %d\n",
		design.Name, stats.Cells, stats.Registers, stats.Nets, stats.MaxLevel)

	// One flow run: synthesis -> placement -> CTS -> routing -> signoff.
	result := repro.RunFlow(design, repro.FlowOptions{
		TargetFreqGHz: 0.55,
		Seed:          42,
	})

	fmt.Printf("\nflow result at %.2f GHz target:\n", result.Options.TargetFreqGHz)
	fmt.Printf("  area:       %.1f um^2 (%d cells after synthesis)\n", result.AreaUm2, result.Cells)
	fmt.Printf("  wirelength: %.1f um placed, %.1f um routed\n", result.Place.HPWLUm, result.Global.WirelengthUm)
	fmt.Printf("  routing:    %d -> %d DRVs in %d iterations (clean=%t)\n",
		result.Route.DRVs[0], result.Route.Final, result.Route.IterationsRun, result.RouteOK)
	fmt.Printf("  timing:     WNS %.1f ps, max frequency %.3f GHz (met=%t)\n",
		result.WNSPs, result.MaxFreqGHz, result.TimingMet)
	fmt.Printf("  power:      %.1f nW leakage\n", result.PowerNW)
	fmt.Printf("  runtime:    %.1f proxy units\n", result.RuntimeProxy)

	if result.Met {
		fmt.Println("\ntarget met in one pass — no iteration needed.")
	} else {
		fmt.Println("\ntarget missed — a Stage-1 robot would now retry with adjusted options.")
	}
}
