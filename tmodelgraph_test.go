package vipipe

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"vipipe/internal/flowerr"
	"vipipe/internal/pipeline"
	"vipipe/internal/sta"
	"vipipe/internal/tmodel"
	"vipipe/internal/variation"
	"vipipe/internal/vi"
)

func whatIfConfig() Config {
	cfg := TestConfig()
	cfg.MCSamples = 40
	cfg.VISamples = 24
	return cfg
}

// TestWhatIfComposedWithinBound pins the serving contract at the flow
// layer: every in-domain what-if answer composed from the cached model
// must lower-bound the exact critical path and land within the model's
// stated error bound.
func TestWhatIfComposedWithinBound(t *testing.T) {
	ctx := context.Background()
	f := New(whatIfConfig())
	pos, err := f.Position("B")
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.TimingModel(ctx, vi.Vertical, pos)
	if err != nil {
		t.Fatal(err)
	}
	if m.BoundPS <= 0 {
		t.Fatalf("model has no stated bound: %g", m.BoundPS)
	}
	part, err := f.GenerateIslands(ctx, vi.Vertical)
	if err != nil {
		t.Fatal(err)
	}
	tm := &Timing{STA: f.STA, ClockPS: f.ClockPS, FmaxMHz: f.FmaxMHz, Derate: f.Derate}

	wmm, hmm := f.PL.DieW/1000, f.PL.DieH/1000
	queries := []tmodel.Query{
		{Raise: 0},
		{Raise: part.NumIslands()},
		{Raise: 1, Overlay: &tmodel.Disc{XMM: 0.4 * wmm, YMM: 0.6 * hmm, RMM: 0.3 * wmm, DeltaFrac: 0.05}},
		{Raise: 0, Overlay: &tmodel.Disc{XMM: 0.7 * wmm, YMM: 0.3 * hmm, RMM: 0.2 * wmm, DeltaFrac: -0.04}},
	}
	for qi, q := range queries {
		ans, err := EvalWhatIf(f.Cfg, tm, part, m, pos, q)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if ans.Exact {
			t.Fatalf("query %d escaped the model domain", qi)
		}
		exact, err := exactWhatIf(f.Cfg, tm, part, pos, q)
		if err != nil {
			t.Fatal(err)
		}
		gap := exact.CritPS - ans.CritPS
		if gap < -1e-6 || gap > m.BoundPS {
			t.Errorf("query %d: composed crit %.3f vs exact %.3f — gap %.3f outside (0, %.3f]",
				qi, ans.CritPS, exact.CritPS, gap, m.BoundPS)
		}
	}
}

// TestWhatIfFallbackBitIdentical forces the exact-STA fallback with an
// out-of-domain overlay excursion and proves the answer is
// bit-identical to an independently built kernel run at the same
// operating point.
func TestWhatIfFallbackBitIdentical(t *testing.T) {
	ctx := context.Background()
	f := New(whatIfConfig())
	pos, err := f.Position("B")
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.TimingModel(ctx, vi.Vertical, pos)
	if err != nil {
		t.Fatal(err)
	}
	part, err := f.GenerateIslands(ctx, vi.Vertical)
	if err != nil {
		t.Fatal(err)
	}
	tm := &Timing{STA: f.STA, ClockPS: f.ClockPS, FmaxMHz: f.FmaxMHz, Derate: f.Derate}

	wmm, hmm := f.PL.DieW/1000, f.PL.DieH/1000
	q := tmodel.Query{
		Raise:   1,
		Overlay: &tmodel.Disc{XMM: 0.5 * wmm, YMM: 0.5 * hmm, RMM: 0.4 * wmm, DeltaFrac: 2 * m.MaxDeltaFrac},
	}
	ans, err := EvalWhatIf(f.Cfg, tm, part, m, pos, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact {
		t.Fatal("out-of-domain query did not fall back to exact STA")
	}
	if ans.BoundPS != 0 || ans.Crossings != 0 {
		t.Fatalf("fallback answer carries composed fields: bound %g, crossings %d", ans.BoundPS, ans.Crossings)
	}

	// Independent reference: rebuild the operating point's scale vector
	// from first principles and run the kernel directly.
	n := f.NL.NumCells()
	lg := systematicLgate(f.Cfg.Model, f.NL, f.PL, pos)
	tech := &f.NL.Lib.Tech
	loScale := tech.DelayScaler(tech.VddLow)
	hiScale := tech.DelayScaler(tech.VddHigh)
	deltaNM := f.Cfg.Model.LnomNM * q.Overlay.DeltaFrac
	scale := make([]float64, n)
	for i := 0; i < n; i++ {
		lgi := lg[i]
		cx, cy := f.PL.Center(i)
		dx, dy := cx/1000-q.Overlay.XMM, cy/1000-q.Overlay.YMM
		if dx*dx+dy*dy <= q.Overlay.RMM*q.Overlay.RMM {
			lgi += deltaNM
		}
		if int(part.Region[i]) <= q.Raise {
			scale[i] = hiScale(lgi) * f.Derate[i]
		} else {
			scale[i] = loScale(lgi) * f.Derate[i]
		}
	}
	var frame sta.Frame
	sta.NewKernel(f.STA).RunFrame(&frame, f.ClockPS, scale)

	if math.Float64bits(ans.CritPS) != math.Float64bits(frame.CritPS) {
		t.Errorf("fallback crit %v != reference %v", ans.CritPS, frame.CritPS)
	}
	if math.Float64bits(ans.WorstSlackPS) != math.Float64bits(frame.WorstSlack) {
		t.Errorf("fallback slack %v != reference %v", ans.WorstSlackPS, frame.WorstSlack)
	}
	for _, st := range ans.PerStage {
		lane := frame.Lanes[st.Stage]
		if !frame.Present[st.Stage] {
			t.Errorf("stage %v reported but absent in reference", st.Stage)
			continue
		}
		if math.Float64bits(st.WorstSlackPS) != math.Float64bits(lane.WorstSlack) {
			t.Errorf("stage %v slack %v != reference %v", st.Stage, st.WorstSlackPS, lane.WorstSlack)
		}
		if int(st.Endpoint) != lane.Endpoint {
			t.Errorf("stage %v endpoint %d != reference %d", st.Stage, st.Endpoint, lane.Endpoint)
		}
	}
}

// TestTimingModelPersistsToDisk proves the tmodel/* node is cached in
// both tiers: repeated requests return the identical artifact, the gob
// lands in the disk store, and a fresh memory tier over the same disk
// decodes a byte-identical model without recomputation.
func TestTimingModelPersistsToDisk(t *testing.T) {
	ctx := context.Background()
	cfg := whatIfConfig()
	disk, err := pipeline.OpenDiskStore(t.TempDir(), DiskCodecs())
	if err != nil {
		t.Fatal(err)
	}
	f := NewWithStore(cfg, pipeline.NewTiered(pipeline.NewMemStore(), disk))
	pos, err := f.Position("C")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := f.TimingModel(ctx, vi.Horizontal, pos)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := f.TimingModel(ctx, vi.Horizontal, pos)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("second request did not hit the memory tier")
	}

	id := NodeTimingModel(vi.Horizontal, pos.Name)
	codec := DiskCodecs()(id)
	if codec == nil {
		t.Fatalf("no disk codec for %s", id)
	}
	decoded, _, ok := disk.Get(ctx, f.graph.Key(id))
	if !ok {
		t.Fatalf("artifact %s missing from disk store", id)
	}
	if _, ok := decoded.(*tmodel.Model); !ok {
		t.Fatalf("decoded artifact is %T, want *tmodel.Model", decoded)
	}
	want, err := codec.Encode(m1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.Encode(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("disk round-trip is not byte-identical")
	}
}

// TestWhatIfRejectsCollapsingOverlay checks that an overlay excursion
// at or below variation.DeltaFracFloor is an input error, not a
// non-finite answer.
func TestWhatIfRejectsCollapsingOverlay(t *testing.T) {
	f := New(TestConfig())
	pos, err := f.Position("B")
	if err != nil {
		t.Fatal(err)
	}
	for _, df := range []float64{-1.5, variation.DeltaFracFloor, math.NaN()} {
		q := tmodel.Query{Overlay: &tmodel.Disc{XMM: 0.1, YMM: 0.1, RMM: 5, DeltaFrac: df}}
		ans, err := f.WhatIf(context.Background(), vi.Vertical, pos, q)
		if !errors.Is(err, flowerr.ErrBadInput) {
			t.Errorf("delta_frac %g: err %v (answer crit %g, fmax %g), want bad input", df, err, ans.CritPS, ans.FmaxMHz)
		}
	}
}
