package sta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vipipe/internal/netlist"
)

// referenceRunInto is an independent, map-based statement of the timing
// semantics: it walks the netlist directly (its own levelization, the
// netlist's adjacency) instead of the flattened timing graph, and
// accumulates the per-stage summary in a map. Analyzer.Run must agree
// with it bit for bit.
func referenceRunInto(t *testing.T, a *Analyzer, rep *Report, clockPS float64, scale []float64) {
	t.Helper()
	order, err := a.NL.Levelize()
	if err != nil {
		t.Fatal(err)
	}
	nl := a.NL
	if cap(rep.Arrival) < nl.NumNets() {
		rep.Arrival = make([]float64, nl.NumNets())
	}
	rep.Arrival = rep.Arrival[:nl.NumNets()]
	rep.ClockPS = clockPS
	rep.Endpoints = rep.Endpoints[:0]
	arr := rep.Arrival

	sc := func(i int) float64 {
		if scale == nil {
			return 1
		}
		return scale[i]
	}

	// Startpoints.
	neg := math.Inf(-1)
	for n := range arr {
		arr[n] = neg
	}
	for _, n := range nl.PIs {
		arr[n] = 0
	}
	for i := range nl.Insts {
		c := nl.Cell(i)
		switch {
		case c.Sequential:
			arr[nl.Insts[i].Out] = a.baseDelay[i] * sc(i)
		case c.IsTie():
			// Constants never switch: they do not launch paths.
			arr[nl.Insts[i].Out] = neg
		}
	}

	// Propagate through combinational logic in topological order.
	for _, i := range order {
		inst := &nl.Insts[i]
		if nl.Cell(i).IsTie() {
			continue
		}
		worst := neg
		for _, n := range inst.Inputs {
			if t := arr[n] + a.wire[n]; t > worst {
				worst = t
			}
		}
		if worst == neg {
			arr[inst.Out] = neg
			continue
		}
		arr[inst.Out] = worst + a.baseDelay[i]*sc(i)
	}

	// Endpoints: flop D pins and primary outputs.
	rep.WorstSlack = math.Inf(1)
	rep.CritPS = 0
	rep.PerStage = make(map[netlist.Stage]*StageTiming)
	addEndpoint := func(inst, net int, stage netlist.Stage, need float64) {
		t := arr[net] + a.wire[net]
		if t == neg {
			return // constant path: unconstrained
		}
		slack := need - t
		ep := Endpoint{Inst: inst, Net: net, Stage: stage, Arrival: t, Slack: slack}
		rep.Endpoints = append(rep.Endpoints, ep)
		if slack < rep.WorstSlack {
			rep.WorstSlack = slack
		}
		if crit := t + (clockPS - need); crit > rep.CritPS {
			rep.CritPS = crit
		}
		st := rep.PerStage[stage]
		if st == nil {
			st = &StageTiming{Stage: stage, WorstSlack: math.Inf(1)}
			rep.PerStage[stage] = st
		}
		st.Endpoints++
		if slack < st.WorstSlack {
			st.WorstSlack = slack
			st.WorstArr = t
			st.Endpoint = inst
		}
	}
	for i := range nl.Insts {
		if nl.IsSequential(i) {
			need := clockPS - a.setup[i]*sc(i)
			addEndpoint(i, nl.Insts[i].Inputs[0], nl.Insts[i].Stage, need)
		}
	}
	for _, n := range nl.POs {
		addEndpoint(netlist.NoInst, n, netlist.StageNone, clockPS)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameReport fails unless got and want agree bit for bit on
// every field of a timing report, endpoints in order.
func requireSameReport(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if !sameBits(got.ClockPS, want.ClockPS) || !sameBits(got.WorstSlack, want.WorstSlack) || !sameBits(got.CritPS, want.CritPS) {
		t.Fatalf("%s: clock/worst/crit %v/%v/%v, want %v/%v/%v", label,
			got.ClockPS, got.WorstSlack, got.CritPS, want.ClockPS, want.WorstSlack, want.CritPS)
	}
	if len(got.Arrival) != len(want.Arrival) {
		t.Fatalf("%s: %d arrivals, want %d", label, len(got.Arrival), len(want.Arrival))
	}
	for n := range want.Arrival {
		if !sameBits(got.Arrival[n], want.Arrival[n]) {
			t.Fatalf("%s: arrival[%d] = %v, want %v", label, n, got.Arrival[n], want.Arrival[n])
		}
	}
	if len(got.Endpoints) != len(want.Endpoints) {
		t.Fatalf("%s: %d endpoints, want %d", label, len(got.Endpoints), len(want.Endpoints))
	}
	for k, w := range want.Endpoints {
		g := got.Endpoints[k]
		if g.Inst != w.Inst || g.Net != w.Net || g.Stage != w.Stage || !sameBits(g.Arrival, w.Arrival) || !sameBits(g.Slack, w.Slack) {
			t.Fatalf("%s: endpoint %d = %+v, want %+v", label, k, g, w)
		}
	}
	if len(got.PerStage) != len(want.PerStage) {
		t.Fatalf("%s: %d stages, want %d", label, len(got.PerStage), len(want.PerStage))
	}
	for s, w := range want.PerStage {
		g := got.PerStage[s]
		if g == nil || g.Stage != w.Stage || g.Endpoint != w.Endpoint || g.Endpoints != w.Endpoints ||
			!sameBits(g.WorstSlack, w.WorstSlack) || !sameBits(g.WorstArr, w.WorstArr) {
			t.Fatalf("%s: stage %v = %+v, want %+v", label, s, g, w)
		}
	}
}

// TestRunMatchesReference locks the full Analyzer report to the
// independent reference: nominal (nil scale) and 25 random scale/clock
// trials whose clocks straddle the critical path, so violating
// endpoints are exercised.
func TestRunMatchesReference(t *testing.T) {
	a := coreAnalyzer(t)
	n := a.NL.NumCells()
	want := &Report{}
	referenceRunInto(t, a, want, 1e9, nil)
	clock := want.CritPS
	requireSameReport(t, "nil scale", a.Run(1e9, nil), want)

	rng := rand.New(rand.NewSource(11))
	violating := 0
	for trial := 0; trial < 25; trial++ {
		scale := randScale(rng, n)
		c := clock * (0.8 + 0.4*rng.Float64())
		referenceRunInto(t, a, want, c, scale)
		got := a.Run(c, scale)
		requireSameReport(t, fmt.Sprintf("trial %d", trial), got, want)
		if got.WorstSlack < 0 {
			violating++
		}
	}
	if violating == 0 || violating == 25 {
		t.Fatalf("%d of 25 trials violate: the clocks do not straddle the critical path", violating)
	}
}
