package main

// The layer ladder replays one field_cold shard — position ladderPos,
// shard 0 of the field_cold plan at the run's seed — the way
// yield.ComputeShard runs it: one sample at a time over one reused
// buffer of cells, with a clock read at each layer boundary inside the
// sample loop. Each repetition replays the shard once and times
// ComputeShard on the same input next to it, so the layer times and the
// shard time see the same machine. In each repetition the per-sample
// layer times add up to the shard time less the unattributed time: the
// per-shard set-up (systematic Lgate map, scaler, histogram), the
// per-sample context check and the loop itself.
//
//	shard/sample = derive + cells*draw + cells*scale + kernel run + fold + unattributed
//
// Each metric is the median over the repetitions;
// yield.unattributed_ns_per_sample is the median of the repetitions'
// own residuals. Pairing each shard with the replay beside it cancels
// the machine's speed drift, which a difference of two medians would
// not. The residual is a few microseconds of set-up per sample against
// a drift of about one percent between neighbouring timings, so it is
// near 0 and either sign.
//
// The remaining layers (codec, disk tier, graph hits, timing model,
// analyzer, kernel construction, merge and surface) are timed on the
// same reduced-core flow, and the Flow facade times come from the
// paper run (paper_full) or a reduced-core paper run (the others).

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"time"

	"vipipe"
	"vipipe/internal/cell"
	"vipipe/internal/obs"
	"vipipe/internal/pipeline"
	"vipipe/internal/sta"
	"vipipe/internal/stats"
	"vipipe/internal/tmodel"
	"vipipe/internal/variation"
	"vipipe/internal/vi"
	"vipipe/internal/yield"
)

const (
	ladderPos  = "r3c4"
	ladderReps = 41
)

// layerTimes are one repetition's ladder times, or their medians, in
// ns: per sample for stream derivation, kernel run, fold and the whole
// shard, per cell for the Lgate draw and the delay scaling.
type layerTimes struct {
	cells                                 int
	derive, draw, scale, run, fold, shard float64
}

// sum is the per-sample time of the timed layers.
func (t layerTimes) sum() float64 {
	return t.derive + float64(t.cells)*(t.draw+t.scale) + t.run + t.fold
}

// unattributed is the part of the shard time no layer accounts for.
func (t layerTimes) unattributed() float64 { return t.shard - t.sum() }

// medianLadder returns the median of each time over the repetitions,
// and the median of the repetitions' unattributed times.
func medianLadder(reps []layerTimes) (layerTimes, float64) {
	field := func(f func(layerTimes) float64) float64 {
		xs := make([]float64, len(reps))
		for i, t := range reps {
			xs[i] = f(t)
		}
		return median(xs)
	}
	return layerTimes{
		cells:  reps[0].cells,
		derive: field(func(t layerTimes) float64 { return t.derive }),
		draw:   field(func(t layerTimes) float64 { return t.draw }),
		scale:  field(func(t layerTimes) float64 { return t.scale }),
		run:    field(func(t layerTimes) float64 { return t.run }),
		fold:   field(func(t layerTimes) float64 { return t.fold }),
		shard:  field(func(t layerTimes) float64 { return t.shard }),
	}, field(layerTimes.unattributed)
}

// sampleLoop is yield.ComputeShard's sample loop for one shard without
// an overlay, split at the layer boundaries the ladder times. A replay
// computes the same critical paths and fold as ComputeShard.
type sampleLoop struct {
	in        yield.ShardInput
	sysNM     []float64
	sigma     float64
	scaler    func(float64) float64
	lg, scale []float64
	stat      yield.ShardStat
}

func newSampleLoop(in yield.ShardInput) *sampleLoop {
	n := in.Kernel.NumCells()
	l := &sampleLoop{
		in:     in,
		sysNM:  make([]float64, n),
		sigma:  in.Model.RndSigmaNM(),
		scaler: in.Tech.DelayScaler(in.Tech.VddLow),
		lg:     make([]float64, n),
		scale:  make([]float64, n),
	}
	for i := range l.sysNM {
		cx, cy := in.PL.Center(i)
		l.sysNM[i] = in.Model.SystematicLgateNM(in.Pos.XMM+cx/1000, in.Pos.YMM+cy/1000)
	}
	return l
}

// Layers of the sample loop, in order.
const (
	layerDerive = iota
	layerDraw
	layerScale
	layerRun
	layerFold
	numLayers
)

// replay runs the shard's samples and returns each layer's time summed
// over them. The fold starts afresh, so l.stat is this replay's.
func (l *sampleLoop) replay() [numLayers]time.Duration {
	in := l.in
	l.stat = yield.ShardStat{Hist: yield.NewHistogram(in.Axis.LoPS, in.Axis.HiPS, in.Axis.Points)}
	var t [numLayers]time.Duration
	for k := in.Start; k < in.Start+in.Count; k++ {
		t0 := obs.Now()
		rng := l.stream(k)
		t1 := obs.Now()
		l.draw(rng)
		t2 := obs.Now()
		l.scaleCells()
		t3 := obs.Now()
		crit := in.Kernel.Run(in.ClockPS, l.scale)
		t4 := obs.Now()
		l.stat.Samples++
		l.stat.Crit.Observe(crit)
		l.stat.Hist.Observe(crit)
		t5 := obs.Now()
		t[layerDerive] += t1.Sub(t0)
		t[layerDraw] += t2.Sub(t1)
		t[layerScale] += t3.Sub(t2)
		t[layerRun] += t4.Sub(t3)
		t[layerFold] += t5.Sub(t4)
	}
	return t
}

// stream derives sample k's random stream.
func (l *sampleLoop) stream(k int) *stats.Stream {
	return stats.DeriveStream(l.in.Seed, fmt.Sprintf("mc/%s/%d", l.in.Pos.Name, k))
}

// draw fills the Lgate buffer with one sample's gate lengths. It and
// scaleCells read the loop's fields into locals first, as ComputeShard
// works on locals.
func (l *sampleLoop) draw(rng *stats.Stream) {
	lg, sigma := l.lg, l.sigma
	for i, sys := range l.sysNM {
		lg[i] = sys + rng.Normal(0, sigma)
	}
}

// scaleCells fills the scale buffer with the delay scaling of the
// drawn gate lengths.
func (l *sampleLoop) scaleCells() {
	scaler, derate, scale := l.scaler, l.in.Derate, l.scale
	for i, lg := range l.lg {
		s := scaler(lg)
		if derate != nil {
			s *= derate[i]
		}
		scale[i] = s
	}
}

func (l *sampleLoop) scaled(i int, lg float64) float64 {
	s := l.scaler(lg)
	if l.in.Derate != nil {
		s *= l.in.Derate[i]
	}
	return s
}

// rerun replays the samples with an overlay that shifts the gate
// lengths of the dirty cells by deltaNM, as a re-sweep's overlay shard
// does, and returns the time of the incremental re-timings.
func (l *sampleLoop) rerun(dirty []int, deltaNM float64) time.Duration {
	in := l.in
	var total time.Duration
	for k := in.Start; k < in.Start+in.Count; k++ {
		l.draw(l.stream(k))
		l.scaleCells()
		in.Kernel.Run(in.ClockPS, l.scale)
		for _, i := range dirty {
			l.scale[i] = l.scaled(i, l.lg[i]+deltaNM)
		}
		t0 := obs.Now()
		in.Kernel.Rerun(in.ClockPS, l.scale, dirty)
		total += obs.Since(t0)
	}
	return total
}

// timeLadder replays the shard and times yield.ComputeShard on the same
// input beside it, reps times, and returns each repetition's times. It
// also checks that the replay folds what ComputeShard computes.
func timeLadder(ctx context.Context, in yield.ShardInput, reps int) ([]layerTimes, *sampleLoop, error) {
	l := newSampleLoop(in)
	perSample, perCell := time.Duration(in.Count), float64(in.Count*len(l.sysNM))
	out := make([]layerTimes, reps)
	var want *yield.ShardStat
	var err error
	for r := range out {
		t := &out[r]
		replay := func() {
			d := l.replay()
			t.cells = len(l.sysNM)
			t.derive = float64(d[layerDerive] / perSample)
			t.draw = float64(d[layerDraw]) / perCell
			t.scale = float64(d[layerScale]) / perCell
			t.run = float64(d[layerRun] / perSample)
			t.fold = float64(d[layerFold] / perSample)
		}
		compute := func() {
			t0 := obs.Now()
			want, err = yield.ComputeShard(ctx, in)
			t.shard = float64(obs.Since(t0) / perSample)
		}
		// Alternate the order, so neither side always runs on the
		// caches the other left behind.
		if r%2 == 0 {
			replay()
			compute()
		} else {
			compute()
			replay()
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if err := checkf(l.stat.Samples == want.Samples && l.stat.Crit == want.Crit && reflect.DeepEqual(l.stat.Hist, want.Hist),
		"ladder replay folds %+v, ComputeShard %+v", l.stat.Crit, want.Crit); err != nil {
		return nil, nil, err
	}
	return out, l, nil
}

func ladder(ctx context.Context, b *bench, ft *flowTimes) error {
	cfg := smallSpec(b.seed).ToConfig()
	if ft == nil {
		ft = &flowTimes{}
		wall, err := paperRun(ctx, b, cfg, ft, nil)
		if err != nil {
			return err
		}
		ft.wallMS = wall * 1e3
	}
	setFlowMetrics(b, ft)

	store := pipeline.NewMemStore()
	f := vipipe.NewWithStore(cfg, store)
	if err := f.Run(ctx); err != nil {
		return err
	}
	part, err := f.GenerateIslands(ctx, vi.Vertical)
	if err != nil {
		return err
	}

	plan, err := planOf(fieldRequest(b.seed), cfg.MCSamples, cfg.Seed)
	if err != nil {
		return err
	}
	positions, err := plan.ResolvePositions(&cfg.Model)
	if err != nil {
		return err
	}
	var pos variation.Pos
	for _, p := range positions {
		if p.Name == ladderPos {
			pos = p
		}
	}
	key := plan.PosKey(pos)
	tech := &f.NL.Lib.Tech
	kern := sta.NewKernel(f.STA)
	axis := plan.Axis.Resolve(f.ClockPS)
	shardIn := func(s int) yield.ShardInput {
		start, count := yield.ShardRange(plan.Samples, plan.Shards, s)
		return yield.ShardInput{
			Kernel: kern, PL: f.PL, Model: &cfg.Model, Tech: tech, Pos: pos, Key: key,
			Shard: s, Start: start, Count: count, Seed: plan.Seed,
			Derate: f.Derate, ClockPS: f.ClockPS, Axis: axis,
		}
	}
	in := shardIn(0)
	n := kern.NumCells()

	reps, loop, err := timeLadder(ctx, in, ladderReps)
	if err != nil {
		return err
	}
	lt, unattributed := medianLadder(reps)
	b.set("stats.derive_stream_ns", lt.derive)
	b.set("variation.draw_ns_per_cell", lt.draw)
	b.set("cell.scale_ns_per_cell", lt.scale)
	b.set("sta.kernel_run_ns_per_sample", lt.run)
	b.set("yield.fold_ns_per_sample", lt.fold)
	b.set("yield.shard_ns_per_sample", lt.shard)
	b.set("yield.unattributed_ns_per_sample", unattributed)
	b.set("cell.scale_share", float64(lt.cells)*lt.scale/lt.shard)
	b.counts["ladder.cells"] = lt.cells
	b.counts["ladder.samples"] = in.Count

	// Incremental re-timing over an overlay disc in the middle of the
	// die, as a re-sweep's overlay shards do.
	dieW, dieH := f.PL.DieW/1000, f.PL.DieH/1000
	var dirty []int
	for i := 0; i < n; i++ {
		cx, cy := f.PL.Center(i)
		if math.Hypot(cx/1000-dieW/2, cy/1000-dieH/2) <= 0.25*math.Max(dieW, dieH) {
			dirty = append(dirty, i)
		}
	}
	deltaNM := cfg.Model.LnomNM * 0.03
	reruns := make([]float64, ladderReps)
	for r := range reruns {
		reruns[r] = float64(loop.rerun(dirty, deltaNM)) / float64(in.Count)
	}
	b.set("sta.kernel_rerun_ns_per_sample", median(reruns))
	b.counts["ladder.rerun_cells"] = len(dirty)

	b.set("sta.new_kernel_us", timeIt(ladderReps, time.Microsecond, func() { sta.NewKernel(f.STA) }))
	b.set("sta.analyzer_run_ms", timeIt(ladderReps, time.Millisecond, func() { f.STA.Run(f.ClockPS, f.Derate) }))

	// Fold: the position's four shards, then a whole surface of such
	// groups (every position folds the same shards re-labelled).
	group := make([]*yield.ShardStat, plan.Shards)
	for s := range group {
		if group[s], err = yield.ComputeShard(ctx, shardIn(s)); err != nil {
			return err
		}
	}
	b.set("yield.merge_us", timeIt(ladderReps, time.Microsecond, func() { _, err = yield.MergeShards(group) }))
	if err != nil {
		return err
	}
	perPos := make([][]*yield.ShardStat, len(positions))
	for pi, p := range positions {
		perPos[pi] = make([]*yield.ShardStat, len(group))
		for s, g := range group {
			c := *g
			c.Pos, c.Key = p.Name, plan.PosKey(p)
			perPos[pi][s] = &c
		}
	}
	var surface *yield.Surface
	b.set("yield.surface_us", timeIt(ladderReps, time.Microsecond, func() {
		surface, err = yield.BuildSurface(plan.Hash(), f.ClockPS, plan.Grid, positions, axis, perPos)
	}))
	if err != nil {
		return err
	}

	shardID := vipipe.NodeFieldShard(pos.Name, key, 0)
	if err := ladderCodec(ctx, b, shardID, group[0], vipipe.NodeFieldSurface(plan.Hash()), surface); err != nil {
		return err
	}
	if err := ladderModel(b, f, part, cfg); err != nil {
		return err
	}

	// A graph request whose whole closure is already in the store.
	g := vipipe.NewGraph(cfg, store)
	b.set("pipeline.request_hit_us", timeIt(10*ladderReps, time.Microsecond, func() { _, err = g.Request(ctx, vipipe.NodeLadder) }))
	return err
}

// ladderCodec times the disk codecs on a shard and a surface, and the
// DiskStore's Put and Get on shards.
func ladderCodec(ctx context.Context, b *bench, shardID string, shard *yield.ShardStat, surfaceID string, surface *yield.Surface) error {
	codecs := vipipe.DiskCodecs()
	var encNS, decNS, bytes float64
	for _, art := range []struct {
		id string
		v  any
	}{{shardID, shard}, {surfaceID, surface}} {
		codec := codecs(art.id)
		var data []byte
		var err error
		encNS += timeIt(ladderReps, time.Nanosecond, func() { data, err = codec.Encode(art.v) })
		if err != nil {
			return err
		}
		decNS += timeIt(ladderReps, time.Nanosecond, func() { _, err = codec.Decode(data) })
		if err != nil {
			return err
		}
		bytes += float64(len(data))
	}
	b.set("storecodec.encode_ns_per_byte", encNS/bytes)
	b.set("storecodec.decode_ns_per_byte", decNS/bytes)

	ds, err := pipeline.OpenDiskStore(filepath.Join(b.dir, "ladder"), codecs)
	if err != nil {
		return err
	}
	keys := make([]string, ladderReps)
	for i := range keys {
		keys[i] = fmt.Sprintf("ladder%d/%s", i, shardID)
	}
	i := 0
	ok := true
	b.set("diskstore.put_us", timeIt(ladderReps, time.Microsecond, func() {
		ok = ds.Put(ctx, keys[i], shard) && ok
		i++
	}))
	i = 0
	b.set("diskstore.get_us", timeIt(ladderReps, time.Microsecond, func() {
		_, _, hit := ds.Get(ctx, keys[i])
		ok = hit && ok
		i++
	}))
	return checkf(ok, "disk store lost a ladder shard")
}

// ladderModel times timing-model extraction and the two composed
// query tiers on the reduced core's vertical partition at B.
func ladderModel(b *bench, f *vipipe.Flow, part *vi.Partition, cfg vipipe.Config) error {
	pos, err := f.Position("B")
	if err != nil {
		return err
	}
	n := f.NL.NumCells()
	xum, yum := make([]float64, n), make([]float64, n)
	for i := range xum {
		xum[i], yum[i] = f.PL.Center(i)
	}
	ls := f.Lib.Cell(cell.LvlShift)
	in := tmodel.ExtractInput{
		View: sta.NewKernel(f.STA).View(), ClockPS: f.ClockPS,
		Region: part.Region, Islands: part.NumIslands(),
		LgNM: f.SystematicLgate(pos), Derate: f.Derate, XUM: xum, YUM: yum,
		Tech: f.NL.Lib.Tech, LnomNM: cfg.Model.LnomNM,
		ShifterPS: ls.IntrinsicPS + ls.DrivePSPerFF*ls.InputCapFF,
		Pos:       pos.Name, Strategy: vi.Vertical.String(),
	}
	var m *tmodel.Model
	b.set("tmodel.extract_ms", timeIt(3, time.Millisecond, func() { m, err = tmodel.Extract(in) }))
	if err != nil {
		return err
	}
	raise := tmodel.Query{Raise: m.Islands, Shifters: true}
	overlay := tmodel.Query{Raise: m.Islands, Overlay: &tmodel.Disc{
		XMM: 0.4 * f.PL.DieW / 1000, YMM: 0.6 * f.PL.DieH / 1000, RMM: 0.3 * f.PL.DieW / 1000, DeltaFrac: 0.05}}
	const evals = 200
	for _, q := range []struct {
		name string
		q    tmodel.Query
	}{{"tmodel.eval_composed_us", raise}, {"tmodel.eval_overlay_us", overlay}} {
		b.set(q.name, timeIt(ladderReps, time.Microsecond, func() {
			for i := 0; i < evals; i++ {
				if _, err = m.Eval(q.q); err != nil {
					return
				}
			}
		})/evals)
		if err != nil {
			return err
		}
	}
	return nil
}

// setFlowMetrics attributes a paper run's wall time to the facade
// calls and reports the Monte Carlo node computes.
func setFlowMetrics(b *bench, ft *flowTimes) {
	sum := 0.0
	for _, name := range []string{"synth", "place", "analyze", "characterize", "workload", "islands", "insert_shifters", "power"} {
		b.set("flow."+name+"_ms", ft.ms[name])
		sum += ft.ms[name]
	}
	b.set("flow.unattributed_ms", ft.wallMS-sum)
	b.set("mc.run_ms", median(ft.mcMS))
	b.set("mc.ns_per_sample", median(ft.mcMS)*1e6/float64(ft.mcN))
	b.counts["mc.runs"] = len(ft.mcMS)
}
