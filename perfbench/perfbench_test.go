package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"vipipe"
	"vipipe/internal/sta"
	"vipipe/internal/yield"
)

func TestTailOfKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got, err := tailOf(xs)
	if err != nil {
		t.Fatal(err)
	}
	if want := (tail{Value: 90, Percentile: 90, N: 100}); got != want {
		t.Fatalf("tailOf(1..100) = %+v, want %+v", got, want)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	got, err = tailOf(xs[:11])
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != minOf(xs[:11]) || got.N != 11 {
		t.Fatalf("tailOf of 11 samples = %+v, want the smallest of them", got)
	}
	if _, err := tailOf(xs[:tailBeyond]); err == nil {
		t.Fatalf("tailOf accepted %d samples", tailBeyond)
	}
}

func minOf(xs []float64) float64 { return sorted(xs)[0] }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestExploreMixIsSeeded(t *testing.T) {
	a, b := exploreMix(7, 4000), exploreMix(7, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request mixes")
	}
	if reflect.DeepEqual(a, exploreMix(8, 4000)) {
		t.Fatal("different seeds gave the same request mix")
	}
	if !reflect.DeepEqual(a[:100], exploreMix(7, 100)) {
		t.Fatal("a shorter mix is not a prefix of a longer one")
	}

	kinds := map[string]int{}
	whatifs := 0
	for _, op := range a {
		kinds[op.Kind]++
		if op.Kind != "whatif" {
			continue
		}
		out := 0
		for _, q := range op.Queries {
			if q >= poolIn {
				out++
			}
		}
		want := 0
		if whatifs%fallbackEvery == fallbackEvery-1 {
			want = 1
		}
		if len(op.Queries) != whatIfPerJob || out != want {
			t.Fatalf("what-if job %d has %d queries, %d out of domain; want %d and %d",
				whatifs, len(op.Queries), out, whatIfPerJob, want)
		}
		whatifs++
	}
	for kind, share := range map[string]float64{"whatif": 0.5, "sweep": 0.25, "characterize": 0.25} {
		if got := float64(kinds[kind]) / float64(len(a)); got < share-0.05 || got > share+0.05 {
			t.Errorf("%s share %.3f, want about %.2f", kind, got, share)
		}
	}
}

func TestProbeSequenceCountsAndSpread(t *testing.T) {
	ops := probeSequence(11)
	if !reflect.DeepEqual(ops, probeSequence(11)) {
		t.Fatal("the same seed gave two different probe sequences")
	}
	kinds := map[string]int{}
	last := -1
	for i, op := range ops {
		if op.resweep {
			kinds["resweep"]++
			if last >= 0 && i-last < 2 {
				t.Fatalf("re-sweeps at %d and %d are not spread among the reads", last, i)
			}
			last = i
			continue
		}
		kinds[op.read.class()]++
	}
	want := map[string]int{"resweep": probeResweeps, "whatif": probeReads, "hit_sweep": probeReads, "hit_char": probeReads}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("probe has %v requests, want %v", kinds, want)
	}
}

func TestEditorOverlaysAreSeededAndDistinct(t *testing.T) {
	seen := map[float64]bool{}
	for i := 0; i < 1000; i++ {
		ov := editorOverlay(3, i, 0.5, 0.4)
		if ov != editorOverlay(3, i, 0.5, 0.4) {
			t.Fatalf("overlay %d is not a function of seed and index", i)
		}
		if seen[ov.DeltaFrac] {
			t.Fatalf("overlay %d repeats a delta, so its re-sweep would hit the cache", i)
		}
		seen[ov.DeltaFrac] = true
	}
}

func TestLayerTimesAddUp(t *testing.T) {
	// 2 cells: derive 100 + 2*(draw 10 + scale 40) + run 300 + fold 5.
	lt := layerTimes{cells: 2, derive: 100, draw: 10, scale: 40, run: 300, fold: 5, shard: 600}
	if got := lt.sum(); got != 505 {
		t.Fatalf("sum = %g, want 505", got)
	}
	if got := lt.unattributed(); got != 95 {
		t.Fatalf("unattributed = %g, want 95", got)
	}

	// The residual is the median of the repetitions' own residuals
	// (95, -5, 45), not the difference of the medians (600 - 505).
	slow := lt
	slow.run, slow.shard = 400, 600
	fast := lt
	fast.shard = 550
	med, unattributed := medianLadder([]layerTimes{lt, slow, fast})
	if med.run != 300 || med.shard != 600 || unattributed != 45 {
		t.Fatalf("medianLadder = %+v, %g; want run 300, shard 600, unattributed 45", med, unattributed)
	}
}

// TestSampleLoopReplaysComputeShard checks that the ladder times the
// shard's real work: its layer steps, run in order, fold exactly the
// statistics yield.ComputeShard computes from the same input.
func TestSampleLoopReplaysComputeShard(t *testing.T) {
	ctx := context.Background()
	cfg := smallSpec(5).ToConfig()
	f := vipipe.New(cfg)
	if err := f.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	plan, err := planOf(fieldRequest(5), cfg.MCSamples, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	positions, err := plan.ResolvePositions(&cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	start, count := yield.ShardRange(plan.Samples, plan.Shards, 2)
	axis := plan.Axis.Resolve(f.ClockPS)
	in := yield.ShardInput{
		Kernel: sta.NewKernel(f.STA), PL: f.PL, Model: &cfg.Model, Tech: &f.NL.Lib.Tech,
		Pos: positions[9], Key: plan.PosKey(positions[9]), Shard: 2, Start: start, Count: count,
		Seed: plan.Seed, Derate: f.Derate, ClockPS: f.ClockPS, Axis: axis,
	}
	want, err := yield.ComputeShard(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	reps, loop, err := timeLadder(ctx, in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loop.stat.Crit != want.Crit || !reflect.DeepEqual(loop.stat.Hist, want.Hist) {
		t.Fatalf("replayed fold %+v differs from ComputeShard's %+v", loop.stat.Crit, want.Crit)
	}
	if lt := reps[0]; lt.cells != f.NL.NumCells() || lt.shard <= 0 || lt.scale <= 0 {
		t.Fatalf("implausible layer times %+v", lt)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables the program prints from in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program reports %v", spec.EndToEnd, endToEnd)
	}
	var layers []metricDef
	for _, d := range perLayer {
		layers = append(layers, d.metricDef)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer = %v, program reports %v", spec.PerLayer, layers)
	}
}

func TestPooledSamplesGiveOneMedian(t *testing.T) {
	b := newBench(1, 0, false, "", 0)
	b.pool(samples{SetupS: []float64{3}, UnitS: []float64{1, 2}, Requests: 2, RequestS: 3,
		LatencyMS: map[string][]float64{"whatif": {1, 2, 3}}, PeakRSSMB: 7, Attempted: 5, Failed: 1})
	b.pool(samples{SetupS: []float64{1, 2}, UnitS: []float64{4}, Requests: 1, RequestS: 4,
		LatencyMS: map[string][]float64{"whatif": {10}}, PeakRSSMB: 5, Attempted: 2})
	for _, name := range latencyClasses {
		for len(b.lat[name].ms) <= tailBeyond {
			b.lat[name].ms = append(b.lat[name].ms, 0)
		}
	}
	if err := b.setEndToEnd(); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"setup_s": 2, "wall_s": 2, "req_per_s": 3.0 / 7, "peak_rss_mb": 7}
	for name, v := range want {
		if b.metrics[name] != v {
			t.Errorf("%s = %g, want %g", name, b.metrics[name], v)
		}
	}
	if got := b.lat["whatif"].ms[:4]; !reflect.DeepEqual(got, []float64{1, 2, 3, 10}) {
		t.Errorf("pooled what-if latencies %v, want both processes' in order", got)
	}
	if b.tally.attempted != 7 || b.tally.failed != 1 {
		t.Errorf("pooled tally %d attempted, %d failed; want 7 and 1", b.tally.attempted, b.tally.failed)
	}
}
