// scenario_sweep walks the chip diagonal of the paper's Fig. 2 (points
// A through D), runs the Monte Carlo SSTA at each position, and prints
// the violation-scenario ladder of Section 4.4 — then demonstrates
// post-silicon scenario detection: Razor sensors planned at the worst
// case are read on fresh virtual chips, and their verdicts are
// compared against a full-visibility oracle.
//
// Run with:
//
//	go run ./examples/scenario_sweep
package main

import (
	"context"
	"fmt"
	"log"

	"vipipe"
	"vipipe/internal/mc"
	"vipipe/internal/razor"
	"vipipe/internal/stats"
)

func main() {
	cfg := vipipe.TestConfig()
	flow := vipipe.New(cfg)
	if err := flow.Run(context.Background()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("design-time characterization (Section 4.4):")
	for _, pos := range cfg.Model.DiagonalPositions() {
		res := flow.MC[pos.Name]
		sc, stages := res.Classify(0)
		fmt.Printf("  point %s (%4.1f, %4.1f)mm: scenario %d  %v\n",
			pos.Name, pos.XMM, pos.YMM, sc, stages)
		for _, st := range mc.PipelineStages {
			d := res.PerStage[st]
			fmt.Printf("      %-10v mean slack %7.1f ps (sigma %5.1f)\n", st, d.Fit.Mu, d.Fit.Sigma)
		}
	}

	plan, err := flow.SensorPlan()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRazor plan: %d sensors (budget %d/stage), +%.0f um2 area\n",
		plan.NumSensors(), cfg.SensorBudget, plan.AreaOverheadUM2(flow.Lib))

	// Post-silicon testing: sample fresh chips at each position and
	// let the sensors decide how many islands to raise.
	fmt.Println("\npost-silicon detection on fresh chips:")
	tech := &flow.NL.Lib.Tech
	for _, pos := range cfg.Model.DiagonalPositions() {
		const chips = 12
		agree := 0
		histogram := map[int]int{}
		for c := 0; c < chips; c++ {
			rng := stats.DeriveStream(2026, fmt.Sprintf("chip/%s/%d", pos.Name, c))
			lg := cfg.Model.SampleChip(flow.PL, pos, rng)
			scale := make([]float64, flow.NL.NumCells())
			tech.ScaleInto(scale, lg, flow.Derate, nil)
			det := razor.Detect(flow.STA, plan, flow.ClockPS, scale)
			truth := razor.GroundTruth(flow.STA.Run(flow.ClockPS, scale))
			if det.Equal(truth) {
				agree++
			}
			histogram[det.Scenario]++
		}
		fmt.Printf("  point %s: detected scenarios %v, oracle agreement %d/%d\n",
			pos.Name, histogram, agree, chips)
	}
}
