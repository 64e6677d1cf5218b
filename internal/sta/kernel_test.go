package sta

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
	"vipipe/internal/place"
	"vipipe/internal/vex"
)

// coreAnalyzer builds the small VEX core — reconvergent comb logic,
// several pipe stages, tie cells — the shape that exercises every
// kernel branch.
func coreAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	p, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(core.NL, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func randScale(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 0.8 + 0.5*rng.Float64()
	}
	return s
}

// TestKernelMatchesAnalyzer locks the bit-identity contract: for any
// scale vector and clock, Kernel.Run returns exactly Report.CritPS.
func TestKernelMatchesAnalyzer(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	n := k.NumCells()
	clock := a.Run(1e9, nil).CritPS * 1.001
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		scale := randScale(rng, n)
		c := clock * (0.9 + 0.2*rng.Float64())
		want := a.Run(c, scale).CritPS
		got := k.Run(c, scale)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: kernel %v != analyzer %v", trial, got, want)
		}
	}
}

// TestKernelUnitScale checks the all-ones vector reproduces the
// analyzer's nil-scale (nominal) analysis bit for bit.
func TestKernelUnitScale(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	ones := make([]float64, k.NumCells())
	for i := range ones {
		ones[i] = 1
	}
	want := a.Run(5000, nil).CritPS
	got := k.Run(5000, ones)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("kernel %v != nominal analyzer %v", got, want)
	}
}

// TestRerunMatchesFullRun drives the incremental path through rounds
// of sparse perturbations — including sequential cells, whose outputs
// relaunch, and random comb subsets — and demands each Rerun match a
// from-scratch Run with the same cumulative scale vector, bitwise.
func TestRerunMatchesFullRun(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	ref := NewKernel(a) // fresh kernel for full-run comparison
	n := k.NumCells()
	clock := a.Run(1e9, nil).CritPS * 1.001
	rng := rand.New(rand.NewSource(13))

	scale := randScale(rng, n)
	k.Run(clock, scale)
	for round := 0; round < 30; round++ {
		m := 1 + rng.Intn(8)
		dirty := make([]int, 0, m)
		seen := make(map[int]bool, m)
		for len(dirty) < m {
			i := rng.Intn(n)
			if seen[i] {
				continue
			}
			seen[i] = true
			dirty = append(dirty, i)
			scale[i] = 0.8 + 0.5*rng.Float64()
		}
		got := k.Rerun(clock, scale, dirty)
		want := ref.Run(clock, scale)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d (%d dirty): rerun %v != full %v", round, m, got, want)
		}
	}
}

// TestRerunNoChange verifies an empty dirty set (or one whose scales
// did not actually move) returns the retained critical path unchanged.
func TestRerunNoChange(t *testing.T) {
	a := coreAnalyzer(t)
	k := NewKernel(a)
	n := k.NumCells()
	rng := rand.New(rand.NewSource(3))
	scale := randScale(rng, n)
	clock := a.Run(1e9, nil).CritPS
	base := k.Run(clock, scale)
	if got := k.Rerun(clock, scale, nil); math.Float64bits(got) != math.Float64bits(base) {
		t.Fatalf("empty rerun %v != base %v", got, base)
	}
	if got := k.Rerun(clock, scale, []int{0, n / 2, n - 1}); math.Float64bits(got) != math.Float64bits(base) {
		t.Fatalf("no-op rerun %v != base %v", got, base)
	}
}

// TestSharedAnalyzerConcurrent shares one Analyzer, and so one timing
// graph, between goroutines that run full reports and goroutines that
// drive their own kernels through Run and Rerun. Every result must
// match the one computed alone. Run it under -race.
func TestSharedAnalyzerConcurrent(t *testing.T) {
	a := coreAnalyzer(t)
	n := a.NL.NumCells()
	clock := a.Run(1e9, nil).CritPS
	rng := rand.New(rand.NewSource(17))
	base := randScale(rng, n)
	wantBase := a.Run(clock, base).CritPS
	const variants = 6
	scales := make([][]float64, variants)
	dirty := make([][]int, variants)
	want := make([]float64, variants)
	for v := range scales {
		scales[v] = append([]float64(nil), base...)
		for j := 0; j < 8; j++ {
			i := rng.Intn(n)
			dirty[v] = append(dirty[v], i)
			scales[v][i] = 0.8 + 0.5*rng.Float64()
		}
		want[v] = a.Run(clock, scales[v]).CritPS
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(useKernel bool) {
			defer wg.Done()
			if !useKernel {
				for v, s := range scales {
					if got := a.Run(clock, s).CritPS; math.Float64bits(got) != math.Float64bits(want[v]) {
						t.Errorf("analyzer variant %d: %v != %v", v, got, want[v])
					}
				}
				return
			}
			k := NewKernel(a)
			if got := k.Run(clock, base); math.Float64bits(got) != math.Float64bits(wantBase) {
				t.Errorf("kernel base run: %v != %v", got, wantBase)
			}
			for v, s := range scales {
				if got := k.Rerun(clock, s, dirty[v]); math.Float64bits(got) != math.Float64bits(want[v]) {
					t.Errorf("kernel variant %d: %v != %v", v, got, want[v])
				}
				if got := k.Rerun(clock, base, dirty[v]); math.Float64bits(got) != math.Float64bits(wantBase) {
					t.Errorf("kernel restore %d: %v != %v", v, got, wantBase)
				}
			}
		}(w%2 == 1)
	}
	wg.Wait()
}

// TestKernelKeepsGraphAcrossRefresh grows the netlist and refreshes
// the analyzer: a kernel built before still returns its old bits, and
// one built after matches the refreshed analyzer.
func TestKernelKeepsGraphAcrossRefresh(t *testing.T) {
	nl := pipe(4)
	a := analyze(t, nl)
	old := NewKernel(a)
	rng := rand.New(rand.NewSource(19))
	oldScale := randScale(rng, old.NumCells())
	before := old.Run(10000, oldScale)

	// Splice a buffer into the chain.
	target := nl.Nets[nl.Insts[2].Out].Sinks[0]
	buf := nl.AddInst(cell.Buf, "b1", netlist.StageNone, "", nl.Insts[2].Out)
	nl.RewireInput(target.Inst, target.Pin, buf)
	a.PL.Extend()
	a.PL.InsertAt(nl.NumCells()-1, a.PL.DieW/2, a.PL.DieH/2)
	if err := a.Refresh(); err != nil {
		t.Fatal(err)
	}

	if old.NumCells() != len(oldScale) {
		t.Fatalf("old kernel now times %d cells, built for %d", old.NumCells(), len(oldScale))
	}
	if got := old.Run(10000, oldScale); math.Float64bits(got) != math.Float64bits(before) {
		t.Fatalf("old kernel after Refresh: %v, want its old %v", got, before)
	}
	k := NewKernel(a)
	scale := randScale(rng, k.NumCells())
	want := a.Run(10000, scale).CritPS
	if got := k.Run(10000, scale); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("new kernel %v != refreshed analyzer %v", got, want)
	}
}
