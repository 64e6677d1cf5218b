package sta

import (
	"math"

	"vipipe/internal/netlist"
)

// StageLane is one pipeline stage's endpoint summary inside a Frame:
// the structure-of-arrays counterpart of StageTiming.
type StageLane struct {
	Stage      netlist.Stage
	WorstSlack float64
	WorstArr   float64
	Endpoint   int // instance of the worst endpoint (netlist.NoInst for a PO)
	Endpoints  int
}

// Frame is the batch-friendly endpoint summary of one timing
// evaluation: fixed-size per-stage lanes instead of a per-stage map,
// so Monte Carlo loops can store sample outcomes in flat arrays.
type Frame struct {
	ClockPS    float64
	CritPS     float64
	WorstSlack float64
	// Lanes is indexed by stage; Present marks stages that have at
	// least one constrained endpoint (structural: the set does not
	// vary with the scale vector).
	Lanes   [netlist.NumStages]StageLane
	Present [netlist.NumStages]bool
	// Violators lists the flop instances with negative slack, in
	// ascending instance order (primary outputs are excluded, exactly
	// like the violator scan over Report.Endpoints).
	Violators []int32
}

// RunFrame performs a full timing analysis and summarizes every
// endpoint into f: the per-stage worst slack/arrival/endpoint, the
// global worst slack and CritPS of the Report Analyzer.Run produces
// for the same clock and scale.
func (k *Kernel) RunFrame(f *Frame, clockPS float64, scale []float64) {
	k.g.Propagate(k.arr, scale)
	k.g.EvalEndpoints(f, nil, k.arr, clockPS, scale)
}

// EvalEndpoints evaluates every timing endpoint against the arrivals
// Propagate left in arr and summarizes them into f; nil scale means
// nominal. Flop D pins are scanned in ascending instance order, then
// primary outputs, so ties on equal slacks resolve to the first
// endpoint in that order. Endpoints fed only by constants are
// unconstrained and skipped. When eps is non-nil, *eps is overwritten
// with the constrained endpoints in scan order.
func (g *KernelView) EvalEndpoints(f *Frame, eps *[]Endpoint, arr []float64, clockPS float64, scale []float64) {
	if scale == nil {
		scale = g.ones
	}
	if eps != nil {
		*eps = (*eps)[:0]
	}
	neg := math.Inf(-1)
	f.ClockPS = clockPS
	f.CritPS = 0
	f.WorstSlack = math.Inf(1)
	f.Violators = f.Violators[:0]
	for s := range f.Lanes {
		f.Lanes[s] = StageLane{Stage: netlist.Stage(s), WorstSlack: math.Inf(1)}
		f.Present[s] = false
	}
	add := func(inst, net int, stage netlist.Stage, need float64) {
		t := arr[net] + g.WirePS[net]
		if t == neg {
			return // constant path: unconstrained
		}
		slack := need - t
		if eps != nil {
			*eps = append(*eps, Endpoint{Inst: inst, Net: net, Stage: stage, Arrival: t, Slack: slack})
		}
		if slack < f.WorstSlack {
			f.WorstSlack = slack
		}
		// crit keeps the t + (clock - need) form: simplifying it to
		// t + setup*scale would change bits.
		if crit := t + (clockPS - need); crit > f.CritPS {
			f.CritPS = crit
		}
		lane := &f.Lanes[stage]
		f.Present[stage] = true
		lane.Endpoints++
		if slack < lane.WorstSlack {
			lane.WorstSlack = slack
			lane.WorstArr = t
			lane.Endpoint = inst
		}
		if slack < 0 && inst != netlist.NoInst {
			f.Violators = append(f.Violators, int32(inst))
		}
	}
	for _, i := range g.Seq {
		add(i, int(g.in0[i]), g.Stage[i], clockPS-g.SetupPS[i]*scale[i])
	}
	for _, n := range g.POs {
		add(netlist.NoInst, n, netlist.StageNone, clockPS)
	}
}
