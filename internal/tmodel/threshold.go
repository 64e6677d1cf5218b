package tmodel

import (
	"math"

	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/sta"
)

// ThresholdModel answers one family of queries against one fixed
// per-cell delay sample: "what are the critical path and per-stage
// slacks when every cell with axis coordinate <= bound runs at high
// supply?" — the exact question vi's binary boundary search asks once
// per probe per sample. The model stores the worst paths backtracked
// at a handful of probe bounds; EvalBound re-prices them in
// microseconds. Like Model, a composed answer is a lower bound on the
// exact critical path, so a boundary the model accepts may rarely be
// one the exact check would reject — callers needing certainty
// re-verify the final boundary exactly.
type ThresholdModel struct {
	clockPS float64
	sigs    []tsig
}

// tcell is one path cell's pricing data: its axis coordinate and its
// full delay contribution at low and high supply.
type tcell struct {
	axis   float64
	lo, hi float64
}

// tsig is one stored path: launch + hops in path order with the wire
// delay entering each, then the capture setup terms.
type tsig struct {
	stage   netlist.Stage
	cells   []tcell
	wireIn  []float64
	wireSum float64
	// capAxis/capLo/capHi price the capture setup (zero for a PO).
	capAxis      float64
	capLo, capHi float64
	hasCap       bool
}

// ThresholdInput bundles what threshold extraction needs.
type ThresholdInput struct {
	View    sta.KernelView
	ClockPS float64
	// Axis is the per-instance boundary coordinate (vi's axisPos).
	Axis []float64
	// LoScale/HiScale are the sample's full per-instance delay scales
	// at low and high supply.
	LoScale, HiScale []float64
	// Probes are the bounds to extract worst paths at; at least one.
	Probes []float64
	// PathsPerStage defaults to 4.
	PathsPerStage int
}

// ExtractThreshold probes the given bounds with exact propagation and
// stores the union of worst paths per stage.
func ExtractThreshold(in ThresholdInput) (*ThresholdModel, error) {
	n := len(in.View.Out)
	if n == 0 || len(in.Axis) != n || len(in.LoScale) != n || len(in.HiScale) != n {
		return nil, flowerr.BadInputf("tmodel: threshold inputs cover %d/%d/%d of %d cells",
			len(in.Axis), len(in.LoScale), len(in.HiScale), n)
	}
	if len(in.Probes) == 0 {
		return nil, flowerr.BadInputf("tmodel: threshold extraction needs at least one probe bound")
	}
	if in.PathsPerStage <= 0 {
		in.PathsPerStage = 4
	}

	e := newExtractor(in.View)
	scale := make([]float64, n)
	tm := &ThresholdModel{clockPS: in.ClockPS}
	seen := make(map[string]bool)
	for _, bound := range in.Probes {
		for i := 0; i < n; i++ {
			if in.Axis[i] <= bound {
				scale[i] = in.HiScale[i]
			} else {
				scale[i] = in.LoScale[i]
			}
		}
		e.v.Propagate(e.arr, scale)
		e.v.EvalEndpoints(&e.frame, &e.eps, e.arr, in.ClockPS, scale)
		for _, ep := range worstPerStage(e.eps, in.PathsPerStage) {
			g, ok := e.backtrack(ep)
			if !ok {
				continue
			}
			k := g.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			tm.sigs = append(tm.sigs, makeTsig(&g, in))
		}
	}
	if len(tm.sigs) == 0 {
		return nil, flowerr.BadInputf("tmodel: no constrained paths to model")
	}
	return tm, nil
}

func makeTsig(g *gsig, in ThresholdInput) tsig {
	s := tsig{stage: g.stage}
	add := func(c int32, wire float64) {
		s.cells = append(s.cells, tcell{
			axis: in.Axis[c],
			lo:   in.View.BasePS[c] * in.LoScale[c],
			hi:   in.View.BasePS[c] * in.HiScale[c],
		})
		s.wireIn = append(s.wireIn, wire)
		s.wireSum += wire
	}
	if g.launch >= 0 {
		add(g.launch, 0)
	}
	for j, c := range g.hops {
		add(c, g.hopWire[j])
	}
	s.wireSum += g.capWire
	if g.capInst >= 0 {
		c := g.capInst
		s.hasCap = true
		s.capAxis = in.Axis[c]
		s.capLo = in.View.SetupPS[c] * in.LoScale[c]
		s.capHi = in.View.SetupPS[c] * in.HiScale[c]
	}
	return s
}

// BoundResult is one EvalBound answer.
type BoundResult struct {
	CritPS  float64
	Slack   [netlist.NumStages]float64
	Present [netlist.NumStages]bool
}

// EvalBound prices the stored paths at one boundary position.
func (tm *ThresholdModel) EvalBound(bound float64) BoundResult {
	var r BoundResult
	for s := range r.Slack {
		r.Slack[s] = math.Inf(1)
	}
	for i := range tm.sigs {
		s := &tm.sigs[i]
		t := s.wireSum
		for j := range s.cells {
			c := &s.cells[j]
			if c.axis <= bound {
				t += c.hi
			} else {
				t += c.lo
			}
		}
		need := tm.clockPS
		if s.hasCap {
			setup := s.capLo
			if s.capAxis <= bound {
				setup = s.capHi
			}
			need = tm.clockPS - setup
		}
		slack := need - t
		if c := t + (tm.clockPS - need); c > r.CritPS {
			r.CritPS = c
		}
		if slack < r.Slack[s.stage] {
			r.Slack[s.stage] = slack
		}
		r.Present[s.stage] = true
	}
	return r
}

// NumSigs reports how many paths the model stores.
func (tm *ThresholdModel) NumSigs() int { return len(tm.sigs) }
