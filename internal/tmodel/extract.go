package tmodel

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"vipipe/internal/cell"
	"vipipe/internal/flowerr"
	"vipipe/internal/netlist"
	"vipipe/internal/sta"
)

// ExtractInput bundles everything extraction needs: the kernel's
// flattened timing structure plus the per-instance operating data of
// the chip position the model is for.
type ExtractInput struct {
	// View is the timing graph (sta.Kernel.View()); all slices are
	// read-only.
	View    sta.KernelView
	ClockPS float64
	// Region is the per-instance island region, vi.Partition.Region
	// semantics: 1..Islands for island cells, any larger value for
	// cells never raised. nil = no islands.
	Region  []int32
	Islands int
	// LgNM is the systematic gate length per instance at the model's
	// chip position; Derate the slack-recovery factors (nil = ones).
	LgNM   []float64
	Derate []float64
	// XUM/YUM are placement centers in microns.
	XUM, YUM []float64
	Tech     cell.Tech
	LnomNM   float64
	// ShifterPS is the nominal per-crossing level-shifter delay for
	// shifter-cost estimates.
	ShifterPS float64
	Pos       string
	Strategy  string
	// PathsPerStage is how many worst endpoints per stage have their
	// paths stored per probe corner (default 4).
	PathsPerStage int
	// MaxDeltaFrac bounds overlay queries (default 0.08).
	MaxDeltaFrac float64
}

// Extract probes the island-raise corners of the design, backtracks
// the worst paths per stage at each corner, and compiles the union
// into a compact Model, validating the composition against exact STA
// to establish BoundPS. Extraction is deterministic: the same input
// produces a byte-identical model.
func Extract(in ExtractInput) (*Model, error) {
	n := len(in.View.Out)
	if n == 0 {
		return nil, flowerr.BadInputf("tmodel: empty netlist view")
	}
	if in.ClockPS <= 0 {
		return nil, flowerr.BadInputf("tmodel: clock period %g must be positive", in.ClockPS)
	}
	if len(in.LgNM) != n || len(in.XUM) != n || len(in.YUM) != n {
		return nil, flowerr.BadInputf("tmodel: per-instance inputs cover %d/%d/%d of %d cells",
			len(in.LgNM), len(in.XUM), len(in.YUM), n)
	}
	if in.Region != nil && len(in.Region) != n {
		return nil, flowerr.BadInputf("tmodel: region length %d != %d cells", len(in.Region), n)
	}
	if in.Derate != nil && len(in.Derate) != n {
		return nil, flowerr.BadInputf("tmodel: derate length %d != %d cells", len(in.Derate), n)
	}
	if in.Islands < 0 {
		return nil, flowerr.BadInputf("tmodel: island count %d must be >= 0", in.Islands)
	}
	if in.PathsPerStage <= 0 {
		in.PathsPerStage = 4
	}
	if in.MaxDeltaFrac <= 0 {
		in.MaxDeltaFrac = 0.08
	}

	// Per-instance island group and full low/high scale vectors.
	group := make([]int32, n)
	high := make([]cell.Domain, n)
	for i := 0; i < n; i++ {
		group[i] = int32(in.Islands) + 1
		if in.Region != nil {
			if r := in.Region[i]; r >= 1 && r <= int32(in.Islands) {
				group[i] = r
			}
		}
		high[i] = cell.DomainHigh
	}
	scales := func(lg []float64) (lo, hi []float64) {
		lo, hi = make([]float64, n), make([]float64, n)
		in.Tech.ScaleInto(lo, lg, in.Derate, nil)
		in.Tech.ScaleInto(hi, lg, in.Derate, high)
		return lo, hi
	}
	lo, hi := scales(in.LgNM)

	e := newExtractor(in.View)
	scale := make([]float64, n)
	// buildScale picks each cell's supply corner for a raise level.
	buildScale := func(raise int, lo, hi []float64) {
		for i := 0; i < n; i++ {
			if group[i] <= int32(raise) {
				scale[i] = hi[i]
			} else {
				scale[i] = lo[i]
			}
		}
	}

	// Probe every raise corner, keep the union of worst-path
	// signatures per stage.
	var sigs []gsig
	seen := make(map[string]bool)
	for raise := 0; raise <= in.Islands; raise++ {
		buildScale(raise, lo, hi)
		e.v.Propagate(e.arr, scale)
		e.v.EvalEndpoints(&e.frame, &e.eps, e.arr, in.ClockPS, scale)
		for _, ep := range worstPerStage(e.eps, in.PathsPerStage) {
			s, ok := e.backtrack(ep)
			if !ok {
				continue
			}
			if k := s.key(); !seen[k] {
				seen[k] = true
				sigs = append(sigs, s)
			}
		}
	}
	if len(sigs) == 0 {
		return nil, flowerr.BadInputf("tmodel: no constrained paths to model")
	}

	m := assemble(modelMeta{
		ClockPS:      in.ClockPS,
		Islands:      in.Islands,
		MaxDeltaFrac: in.MaxDeltaFrac,
		LnomNM:       in.LnomNM,
		Tech:         in.Tech,
		ShifterPS:    in.ShifterPS,
		Pos:          in.Pos,
		Strategy:     in.Strategy,
	}, sigs, func(g int32) cellData {
		return cellData{
			base:   in.View.BasePS[g],
			setup:  in.View.SetupPS[g],
			lg:     in.LgNM[g],
			derate: derateAt(in.Derate, g),
			lo:     lo[g],
			hi:     hi[g],
			group:  group[g],
			x:      in.XUM[g],
			y:      in.YUM[g],
		}
	})

	// Validate the composition against exact STA over the query
	// domain: every raise corner, plus overlay discs at deterministic
	// positions and the extreme excursions. The worst observed gap,
	// doubled with a half-picosecond floor, becomes the stated bound.
	worstGap := 0.0
	note := func(exact *sta.Frame, ans Answer) {
		if g := math.Abs(exact.CritPS - ans.CritPS); g > worstGap {
			worstGap = g
		}
		for _, sa := range ans.PerStage {
			if !exact.Present[sa.Stage] {
				continue
			}
			if g := math.Abs(sa.WorstSlackPS - exact.Lanes[sa.Stage].WorstSlack); g > worstGap {
				worstGap = g
			}
		}
	}
	probe := func(raise int, ov *Disc, lo, hi []float64) error {
		buildScale(raise, lo, hi)
		e.v.Propagate(e.arr, scale)
		e.v.EvalEndpoints(&e.frame, nil, e.arr, in.ClockPS, scale)
		ans, err := m.Eval(Query{Raise: raise, Overlay: ov})
		if err != nil {
			return err
		}
		note(&e.frame, ans)
		return nil
	}
	for raise := 0; raise <= in.Islands; raise++ {
		if err := probe(raise, nil, lo, hi); err != nil {
			return nil, err
		}
	}
	minX, maxX := minMax(in.XUM)
	minY, maxY := minMax(in.YUM)
	spanMM := math.Max(maxX-minX, maxY-minY) / 1000
	for _, fx := range []float64{0.3, 0.7} {
		for _, fy := range []float64{0.3, 0.7} {
			for _, df := range []float64{-in.MaxDeltaFrac, in.MaxDeltaFrac} {
				ov := &Disc{
					XMM:       (minX + fx*(maxX-minX)) / 1000,
					YMM:       (minY + fy*(maxY-minY)) / 1000,
					RMM:       0.35 * spanMM,
					DeltaFrac: df,
				}
				ovLo, ovHi := scales(discLgate(in, ov))
				for raise := 0; raise <= in.Islands; raise++ {
					if err := probe(raise, ov, ovLo, ovHi); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	m.BoundPS = 2*worstGap + 0.5
	return m, nil
}

// discLgate returns the input's gate lengths with the overlay's
// excursion added inside its disc.
func discLgate(in ExtractInput, ov *Disc) []float64 {
	lg := append([]float64(nil), in.LgNM...)
	deltaNM := in.LnomNM * ov.DeltaFrac
	r2 := ov.RMM * ov.RMM
	for i := range lg {
		dx := in.XUM[i]/1000 - ov.XMM
		dy := in.YUM[i]/1000 - ov.YMM
		if dx*dx+dy*dy <= r2 {
			lg[i] += deltaNM
		}
	}
	return lg
}

func derateAt(derate []float64, g int32) float64 {
	if derate == nil {
		return 1
	}
	return derate[g]
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// gsig is a path signature in global instance IDs, the intermediate
// representation between backtracking and model assembly.
type gsig struct {
	stage   netlist.Stage
	ep      int32 // global endpoint inst, netlist.NoInst for a PO
	launch  int32 // global launch flop, -1 for a PI launch
	hops    []int32
	hopWire []float64
	capWire float64
	capInst int32 // global capture flop, -1 for a PO
}

// key is the dedup identity of a signature: the endpoint and the exact
// cell sequence (wires are functions of the cells, so they need no
// encoding).
func (s *gsig) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%d|%d|", s.stage, s.ep, s.launch)
	for _, c := range s.hops {
		fmt.Fprintf(&b, "%d,", c)
	}
	return b.String()
}

// extractor holds the buffers one extraction reuses across probes:
// the arrivals and endpoints the view's timing passes fill, and the
// per-net driver table backtrack walks.
type extractor struct {
	v     sta.KernelView
	arr   []float64
	drv   []int32 // driving instance per net, -1 for PIs
	eps   []sta.Endpoint
	frame sta.Frame
}

func newExtractor(v sta.KernelView) *extractor {
	e := &extractor{
		v:   v,
		arr: make([]float64, len(v.WirePS)),
		drv: make([]int32, len(v.WirePS)),
	}
	for n := range e.drv {
		e.drv[n] = -1
	}
	for i := range v.Out {
		e.drv[v.Out[i]] = int32(i)
	}
	return e
}

// worstPerStage returns, per covered stage, the k endpoints with the
// smallest slack (stable on ties, so the selection is deterministic).
func worstPerStage(eps []sta.Endpoint, k int) []sta.Endpoint {
	byStage := make([][]sta.Endpoint, netlist.NumStages)
	for _, ep := range eps {
		byStage[ep.Stage] = append(byStage[ep.Stage], ep)
	}
	var out []sta.Endpoint
	for s := range byStage {
		lane := byStage[s]
		sort.SliceStable(lane, func(i, j int) bool { return lane[i].Slack < lane[j].Slack })
		if len(lane) > k {
			lane = lane[:k]
		}
		out = append(out, lane...)
	}
	return out
}

// backtrack walks the worst path into an endpoint startpoint-first,
// picking the latest-arriving input at each hop exactly like
// Analyzer.CriticalPath (strictly-greater comparison, first input
// wins ties).
func (e *extractor) backtrack(ep sta.Endpoint) (gsig, bool) {
	v := e.v
	s := gsig{
		stage:   ep.Stage,
		ep:      int32(ep.Inst),
		launch:  -1,
		capWire: v.WirePS[ep.Net],
		capInst: int32(ep.Inst),
	}
	if ep.Inst == netlist.NoInst {
		s.capInst = -1
	}
	net := int32(ep.Net)
	var revCells []int32
	var revWire []float64
	for {
		d := e.drv[net]
		if d < 0 {
			break // primary-input launch
		}
		if v.IsSeq[d] {
			s.launch = d
			break
		}
		if v.IsTie[d] {
			return s, false // constant path: never on a finite arrival
		}
		best, bestT := int32(-1), math.Inf(-1)
		for _, n := range v.InNet[v.InPtr[d]:v.InPtr[d+1]] {
			if t := e.arr[n] + v.WirePS[n]; t > bestT {
				bestT, best = t, n
			}
		}
		if best < 0 {
			return s, false
		}
		revCells = append(revCells, d)
		revWire = append(revWire, v.WirePS[best])
		net = best
	}
	for i := len(revCells) - 1; i >= 0; i-- {
		s.hops = append(s.hops, revCells[i])
		s.hopWire = append(s.hopWire, revWire[i])
	}
	return s, true
}
