package sta

import (
	"math"

	"vipipe/internal/netlist"
)

// KernelView is the flattened timing graph of one characterized
// netlist, and it carries the package's two timing passes: Propagate
// (arrival times) and EvalEndpoints (slacks and the per-stage
// summary). Analyzer builds one in New and a new one in every
// Refresh; a built view is never mutated, so Analyzer.Run, any number
// of Kernels and model extractors (internal/tmodel) share it across
// goroutines. All slices must be treated as read-only.
type KernelView struct {
	// Order is the combinational topological order (instance IDs).
	Order []int
	// BasePS / SetupPS are nominal per-instance delays; WirePS is the
	// per-net wire delay.
	BasePS  []float64
	SetupPS []float64
	WirePS  []float64
	// PIs / POs are primary-input and primary-output net IDs; Seq
	// lists sequential instances in ascending instance order.
	PIs []int
	POs []int
	Seq []int
	// Out is the driven net per instance; InPtr/InNet is the CSR of
	// input nets per instance.
	Out   []int32
	InPtr []int32
	InNet []int32
	IsTie []bool
	IsSeq []bool
	Stage []netlist.Stage

	in0 []int32 // first input net per instance (a flop's D net), -1 if none
	// Combinational non-tie sinks per net, CSR: the mark targets of
	// Kernel.Rerun.
	snkPtr  []int32
	snkInst []int32
	ones    []float64 // the nominal scale vector a nil scale stands for
}

// newGraph flattens a levelized netlist over its characterized delay
// tables, which the view aliases.
func newGraph(nl *netlist.Netlist, order []int, base, setup, wire []float64) *KernelView {
	nCells := nl.NumCells()
	nNets := nl.NumNets()
	g := &KernelView{
		Order:   order,
		BasePS:  base,
		SetupPS: setup,
		WirePS:  wire,
		PIs:     nl.PIs,
		POs:     nl.POs,
		Out:     make([]int32, nCells),
		InPtr:   make([]int32, nCells+1),
		IsTie:   make([]bool, nCells),
		IsSeq:   make([]bool, nCells),
		Stage:   make([]netlist.Stage, nCells),
		in0:     make([]int32, nCells),
		snkPtr:  make([]int32, nNets+1),
		ones:    make([]float64, nCells),
	}
	nIn := 0
	for i := 0; i < nCells; i++ {
		inst := &nl.Insts[i]
		c := nl.Cell(i)
		g.Out[i] = int32(inst.Out)
		g.in0[i] = -1
		if len(inst.Inputs) > 0 {
			g.in0[i] = int32(inst.Inputs[0])
		}
		g.IsTie[i] = c.IsTie()
		g.IsSeq[i] = c.Sequential
		g.Stage[i] = inst.Stage
		if c.Sequential {
			g.Seq = append(g.Seq, i)
		}
		g.ones[i] = 1
		nIn += len(inst.Inputs)
	}
	g.InNet = make([]int32, 0, nIn)
	for i := 0; i < nCells; i++ {
		g.InPtr[i] = int32(len(g.InNet))
		for _, n := range nl.Insts[i].Inputs {
			g.InNet = append(g.InNet, int32(n))
		}
	}
	g.InPtr[nCells] = int32(len(g.InNet))

	nSnk := 0
	for n := 0; n < nNets; n++ {
		for _, s := range nl.Nets[n].Sinks {
			if !g.IsSeq[s.Inst] && !g.IsTie[s.Inst] {
				nSnk++
			}
		}
	}
	g.snkInst = make([]int32, 0, nSnk)
	for n := 0; n < nNets; n++ {
		g.snkPtr[n] = int32(len(g.snkInst))
		for _, s := range nl.Nets[n].Sinks {
			if !g.IsSeq[s.Inst] && !g.IsTie[s.Inst] {
				g.snkInst = append(g.snkInst, int32(s.Inst))
			}
		}
	}
	g.snkPtr[nNets] = int32(len(g.snkInst))
	return g
}

// Propagate computes every net's arrival time at its driver output
// into arr (one entry per net) for a per-instance delay scale; nil
// scale means nominal. Primary inputs launch at 0 and flops at their
// scaled clk-to-Q. Constants never switch, so tie cells and logic fed
// only by them stay at -Inf: they launch no paths.
func (g *KernelView) Propagate(arr, scale []float64) {
	if scale == nil {
		scale = g.ones
	}
	neg := math.Inf(-1)
	for n := range arr {
		arr[n] = neg
	}
	for _, n := range g.PIs {
		arr[n] = 0
	}
	for _, i := range g.Seq {
		arr[g.Out[i]] = g.BasePS[i] * scale[i]
	}
	for _, i := range g.Order {
		if g.IsTie[i] {
			continue
		}
		worst := neg
		for _, n := range g.InNet[g.InPtr[i]:g.InPtr[i+1]] {
			if t := arr[n] + g.WirePS[n]; t > worst {
				worst = t
			}
		}
		if worst == neg {
			arr[g.Out[i]] = neg
			continue
		}
		arr[g.Out[i]] = worst + g.BasePS[i]*scale[i]
	}
}

// Kernel is the allocation-free timing loop for Monte Carlo inner
// loops: it owns the arrival buffer and frame one re-timing needs and
// runs the shared graph's passes into them, returning only the scalar
// the sampling engines need — the critical path length — instead of
// materializing a full Report.
//
// Rerun is the incremental half: after a full Run, a sparse set of
// cells with changed scales re-propagates only the affected cone of
// the timing graph, which is how overlay-perturbed statistics cost a
// fraction of a full analysis per sample.
//
// A Kernel is NOT safe for concurrent use: it owns its buffers. Build
// one per worker; construction only allocates them.
type Kernel struct {
	g     *KernelView
	arr   []float64
	mark  []uint32
	epoch uint32
	frame Frame
}

// NewKernel allocates a kernel over the analyzer's current timing
// graph. The kernel keeps that graph: after Analyzer.Refresh it still
// times the netlist as it was, and a kernel built afterwards times
// the refreshed one.
func NewKernel(a *Analyzer) *Kernel {
	return &Kernel{
		g:    a.g,
		arr:  make([]float64, len(a.g.WirePS)),
		mark: make([]uint32, len(a.g.Out)),
	}
}

// NumCells returns the instance count the kernel times.
func (k *Kernel) NumCells() int { return len(k.g.Out) }

// Run performs a full timing analysis and returns the critical path
// length, Report.CritPS. scale must have NumCells entries. The
// arrival state is retained for a subsequent Rerun.
func (k *Kernel) Run(clockPS float64, scale []float64) float64 {
	k.RunFrame(&k.frame, clockPS, scale)
	return k.frame.CritPS
}

// Rerun updates the retained analysis after a sparse scale change and
// returns the new critical path, bit-identical to a full Run with the
// same scale. dirty lists every instance whose scale entry differs
// from the previous Run/Rerun; arrival times re-propagate only from
// those cells through their affected fanout cones, then all endpoints
// re-evaluate (endpoints are cheap, and flop setup scaling makes every
// endpoint clock-sensitive anyway).
func (k *Kernel) Rerun(clockPS float64, scale []float64, dirty []int) float64 {
	g := k.g
	arr := k.arr
	neg := math.Inf(-1)
	k.epoch++
	e := k.epoch
	for _, i := range dirty {
		switch {
		case g.IsSeq[i]:
			nv := g.BasePS[i] * scale[i]
			if nv != arr[g.Out[i]] {
				arr[g.Out[i]] = nv
				k.markSinks(g.Out[i], e)
			}
		case g.IsTie[i]:
			// Constants do not launch paths; scale is irrelevant.
		default:
			k.mark[i] = e
		}
	}
	for _, i := range g.Order {
		if k.mark[i] != e {
			continue
		}
		worst := neg
		for _, n := range g.InNet[g.InPtr[i]:g.InPtr[i+1]] {
			if t := arr[n] + g.WirePS[n]; t > worst {
				worst = t
			}
		}
		nv := worst + g.BasePS[i]*scale[i]
		if worst == neg {
			nv = neg
		}
		if nv != arr[g.Out[i]] {
			arr[g.Out[i]] = nv
			k.markSinks(g.Out[i], e)
		}
	}
	g.EvalEndpoints(&k.frame, nil, arr, clockPS, scale)
	return k.frame.CritPS
}

// markSinks stamps the combinational non-tie loads of net n for
// re-evaluation; they all sit later in topological order than the
// change that marked them.
func (k *Kernel) markSinks(n int32, e uint32) {
	for _, j := range k.g.snkInst[k.g.snkPtr[n]:k.g.snkPtr[n+1]] {
		k.mark[j] = e
	}
}

// View returns the kernel's timing graph.
func (k *Kernel) View() KernelView { return *k.g }

// NumNets returns the net count the kernel times.
func (k *Kernel) NumNets() int { return len(k.arr) }
