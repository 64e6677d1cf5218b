package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"vipipe"
	"vipipe/internal/obs"
	"vipipe/internal/pipeline"
	"vipipe/internal/service"
	"vipipe/internal/service/wire"
	"vipipe/internal/yield"
)

// smallSpec is the configuration of every yield-engine and service
// operation: the reduced core with the field-sweep sample budget of
// the repository's service benchmarks.
func smallSpec(seed int64) service.ConfigSpec {
	return service.ConfigSpec{Small: true, Seed: seed, MCSamples: 60, VISamples: 24, FIRSamples: 8, FIRTaps: 4}
}

// fieldRequest is the field_cold sweep: 8x8 positions x 4 shards =
// 256 shard computes.
func fieldRequest(seed int64) service.Request {
	return service.Request{Kind: "field_sweep", Grid: "8x8", Shards: 4, Points: 17, Config: smallSpec(seed)}
}

// planOf builds the yield plan of a field_sweep request the way the
// service engine does.
func planOf(req service.Request, samples int, seed int64) (yield.Plan, error) {
	g, err := yield.ParseGrid(req.Grid)
	if err != nil {
		return yield.Plan{}, err
	}
	plan := yield.Plan{Grid: g, Samples: samples, Shards: req.Shards, Seed: seed, Axis: yield.CurveAxis{Points: req.Points}}
	return plan, plan.Validate()
}

const (
	gridN        = 8
	whatIfPerJob = 8
	// poolIn and poolOut size the what-if query pool: in-domain
	// queries the compact model composes, and out-of-domain ones that
	// force the exact-STA fallback.
	poolIn  = 24
	poolOut = 4
	// fallbackEvery is the share (one in fallbackEvery) of what-if
	// jobs that carry one out-of-domain query.
	fallbackEvery = 4
)

// exploreOp is one read of the explorer client: a what-if job over
// pool queries, or a warm sweep or characterize request.
type exploreOp struct {
	Kind     string // "whatif", "sweep" or "characterize"
	Position string // characterize only
	Queries  []int  // whatif only: indices into the query pool
}

// exploreMix returns the explorer's first n operations for a seed:
// half what-if jobs (one in fallbackEvery carrying one out-of-domain
// query), a quarter warm sweeps and a quarter warm characterizations.
// The shares are invented; no measured request log exists to take them
// from.
func exploreMix(seed int64, n int) []exploreOp {
	rng := rand.New(rand.NewSource(mix64(seed, 0x6578706c6f726572)))
	ops := make([]exploreOp, n)
	whatifs := 0
	for i := range ops {
		switch u := rng.Float64(); {
		case u < 0.5:
			qs := make([]int, whatIfPerJob)
			for j := range qs {
				qs[j] = rng.Intn(poolIn)
			}
			if whatifs%fallbackEvery == fallbackEvery-1 {
				qs[rng.Intn(whatIfPerJob)] = poolIn + rng.Intn(poolOut)
			}
			whatifs++
			ops[i] = exploreOp{Kind: "whatif", Queries: qs}
		case u < 0.75:
			ops[i] = exploreOp{Kind: "sweep"}
		default:
			ops[i] = exploreOp{Kind: "characterize", Position: string(rune('A' + rng.Intn(4)))}
		}
	}
	return ops
}

// class is the latency metric prefix of the operation. Warm sweeps and
// warm characterizations are both pure cache hits, but a
// characterization takes about twice as long, so each has its own.
func (op exploreOp) class() string {
	switch op.Kind {
	case "whatif":
		return "whatif"
	case "sweep":
		return "hit_sweep"
	default:
		return "hit_char"
	}
}

// editorOverlay is the editor's i-th overlay: a seeded disc at a
// seeded grid position. The delta carries i, so no two overlays of a
// run are equal and every re-sweep re-keys one position's shards.
func editorOverlay(seed int64, i int, dieWMM, dieHMM float64) service.OverlaySpec {
	rng := rand.New(rand.NewSource(mix64(seed, uint64(i)+0x656469746f72)))
	return service.OverlaySpec{
		Pos:       fmt.Sprintf("r%dc%d", rng.Intn(gridN), rng.Intn(gridN)),
		XMM:       rng.Float64() * dieWMM,
		YMM:       rng.Float64() * dieHMM,
		RMM:       (0.15 + 0.2*rng.Float64()) * math.Max(dieWMM, dieHMM),
		DeltaFrac: 0.01 + 0.04*rng.Float64() + 1e-9*float64(i),
	}
}

// queryPool returns the what-if pool: poolIn in-domain queries
// (raises, shifter costing, small overlays) followed by poolOut
// out-of-domain overlay queries.
func queryPool(seed int64, islands int, dieWMM, dieHMM float64) []service.WhatIfSpec {
	rng := rand.New(rand.NewSource(mix64(seed, 0x706f6f6c)))
	disc := func(delta float64) *service.OverlaySpec {
		return &service.OverlaySpec{
			XMM:       rng.Float64() * dieWMM,
			YMM:       rng.Float64() * dieHMM,
			RMM:       (0.1 + 0.3*rng.Float64()) * math.Max(dieWMM, dieHMM),
			DeltaFrac: delta,
		}
	}
	pool := make([]service.WhatIfSpec, 0, poolIn+poolOut)
	for k := 0; k < poolIn; k++ {
		q := service.WhatIfSpec{Raise: k % (islands + 1), Shifters: k%2 == 1}
		if k >= poolIn/3 {
			q.Overlay = disc(0.01 + 0.05*rng.Float64())
		}
		pool = append(pool, q)
	}
	for k := 0; k < poolOut; k++ {
		pool = append(pool, service.WhatIfSpec{Raise: k % (islands + 1), Overlay: disc(0.2 + 0.1*rng.Float64())})
	}
	return pool
}

// mix64 derives an independent 63-bit seed from a seed and a salt
// (splitmix64 finalizer).
func mix64(seed int64, salt uint64) int64 {
	z := uint64(seed) + salt*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// fixture is a warm what-if and yield service: a Manager with two
// workers over a memory cache tiered over a DiskStore, after a cold
// field sweep, the timing-model extraction and the warm-up of every
// read the explorer sends. It records each read's answer for the
// repeat checks.
type fixture struct {
	seed    int64
	metrics *service.Metrics
	eng     *service.Engine
	mgr     *service.Manager
	disk    *pipeline.DiskStore
	dieWMM  float64
	dieHMM  float64

	surface wire.Surface
	pool    []service.WhatIfSpec
	answers []wire.WhatIfAnswer
	hitRefs map[string]any // warm read results by hitKey

	editorNext int
}

// newFixture builds the warm service. Failures here abort the run.
func newFixture(ctx context.Context, seed int64, dir string) (*fixture, error) {
	disk, err := pipeline.OpenDiskStore(dir, vipipe.DiskCodecs())
	if err != nil {
		return nil, err
	}
	m := service.NewMetrics()
	eng := service.NewEngine(service.NewCache(256<<20), m, service.WithDiskStore(disk))
	fx := &fixture{
		seed: seed, metrics: m, eng: eng, disk: disk,
		mgr:     service.NewManager(eng, m, 2, 64),
		hitRefs: make(map[string]any),
	}
	ok := false
	defer func() {
		if !ok {
			fx.close()
		}
	}()

	v, _, err := fx.submit(ctx, fieldRequest(seed), nil)
	if err != nil {
		return nil, fmt.Errorf("cold sweep: %w", err)
	}
	fx.surface = v.(wire.Surface)
	if err := checkSurface(fx.surface); err != nil {
		return nil, err
	}
	c := countsOf(fx.metrics, nil, nil)
	if c.shardsComputed != 256 || c.shardsCached != 0 {
		return nil, fmt.Errorf("cold sweep computed %d and reused %d shards, want 256 and 0", c.shardsComputed, c.shardsCached)
	}

	// The die size places overlay discs on the core. Placement is
	// deterministic, so a private flow's placement is the service's.
	f := vipipe.New(smallSpec(seed).ToConfig())
	if err := f.Place(ctx); err != nil {
		return nil, err
	}
	fx.dieWMM, fx.dieHMM = f.PL.DieW/1000, f.PL.DieH/1000

	probe := whatIfRequest(seed, []service.WhatIfSpec{{Raise: 0}})
	v, _, err = fx.submit(ctx, probe, nil)
	if err != nil {
		return nil, fmt.Errorf("model extraction: %w", err)
	}
	fx.pool = queryPool(seed, v.(wire.WhatIf).Islands, fx.dieWMM, fx.dieHMM)
	v, _, err = fx.submit(ctx, whatIfRequest(seed, fx.pool), nil)
	if err != nil {
		return nil, fmt.Errorf("what-if pool: %w", err)
	}
	fx.answers = v.(wire.WhatIf).Answers
	for k := poolIn; k < len(fx.pool); k++ {
		if !fx.answers[k].Exact {
			return nil, fmt.Errorf("out-of-domain query %d was composed, not answered by the exact fallback", k)
		}
	}

	for _, op := range []exploreOp{{Kind: "sweep"}, {Kind: "characterize", Position: "A"},
		{Kind: "characterize", Position: "B"}, {Kind: "characterize", Position: "C"},
		{Kind: "characterize", Position: "D"}} {
		v, _, err := fx.submit(ctx, fx.readRequest(op), nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", hitKey(op), err)
		}
		fx.hitRefs[hitKey(op)] = v
	}
	ok = true
	return fx, nil
}

// close drains the Manager, so its workers have exited on return.
// Drain fails only when its context expires, which Background never
// does.
func (fx *fixture) close() {
	_, _ = fx.mgr.Drain(context.Background())
}

func whatIfRequest(seed int64, qs []service.WhatIfSpec) service.Request {
	return service.Request{Kind: "whatif", Strategy: "vertical", Position: "B", Queries: qs, Config: smallSpec(seed)}
}

func hitKey(op exploreOp) string { return op.Kind + op.Position }

func (fx *fixture) readRequest(op exploreOp) service.Request {
	switch op.Kind {
	case "whatif":
		qs := make([]service.WhatIfSpec, len(op.Queries))
		for i, k := range op.Queries {
			qs[i] = fx.pool[k]
		}
		return whatIfRequest(fx.seed, qs)
	case "sweep":
		return service.Request{Kind: "sweep", Strategy: "vertical", Config: smallSpec(fx.seed)}
	default:
		return service.Request{Kind: "characterize", Position: op.Position, Config: smallSpec(fx.seed)}
	}
}

// jobStats collects the Manager's own view of traced jobs.
type jobStats struct {
	queueWait, run latencies
}

// submit runs one job to completion and returns its result and the
// client-observed latency from Submit to completion. With js non-nil
// it also records the job's queue wait and run time.
func (fx *fixture) submit(ctx context.Context, req service.Request, js *jobStats) (any, time.Duration, error) {
	t0 := obs.Now()
	job, err := fx.mgr.Submit(req)
	if err != nil {
		return nil, 0, err
	}
	select {
	case <-job.Done():
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	d := obs.Since(t0)
	if js != nil {
		s := job.Snapshot()
		js.queueWait.add(s.Started.Sub(s.Created))
		js.run.add(s.Finished.Sub(s.Started))
	}
	v, err := job.Result()
	return v, d, err
}

// resweep submits the editor's next re-sweep and checks that it
// recomputed exactly one position's four shards. The editor is the
// only field-sweep client, so the shard counters move for it alone.
func (fx *fixture) resweep(ctx context.Context, js *jobStats) (time.Duration, error) {
	i := fx.editorNext
	fx.editorNext++
	req := fieldRequest(fx.seed)
	req.Overlays = []service.OverlaySpec{editorOverlay(fx.seed, i, fx.dieWMM, fx.dieHMM)}
	before := countsOf(fx.metrics, nil, nil)
	v, d, err := fx.submit(ctx, req, js)
	if err != nil {
		return d, err
	}
	after := countsOf(fx.metrics, nil, nil)
	if n := after.shardsComputed - before.shardsComputed; n != 4 {
		return d, checkf(false, "re-sweep %d computed %d shards, want 4", i, n)
	}
	return d, checkSurface(v.(wire.Surface))
}

// read submits one explorer operation and checks its answer against
// the one recorded at set-up: a repeated read must never see a
// different value (a poisoned cache would serve one).
func (fx *fixture) read(ctx context.Context, op exploreOp, js *jobStats) (time.Duration, error) {
	v, d, err := fx.submit(ctx, fx.readRequest(op), js)
	if err != nil {
		return d, err
	}
	if op.Kind != "whatif" {
		return d, checkf(reflect.DeepEqual(v, fx.hitRefs[hitKey(op)]), "%s answer differs from set-up", hitKey(op))
	}
	ans := v.(wire.WhatIf).Answers
	if len(ans) != len(op.Queries) {
		return d, checkf(false, "what-if returned %d answers for %d queries", len(ans), len(op.Queries))
	}
	for j, k := range op.Queries {
		if !reflect.DeepEqual(ans[j], fx.answers[k]) {
			return d, checkf(false, "what-if query %d answer differs from set-up", k)
		}
	}
	return d, nil
}

// checkSurface checks what holds for any seed: every position has a
// yield curve over the shared period axis that lies in [0,1] and does
// not decrease with the period.
func checkSurface(s wire.Surface) error {
	if len(s.Positions) != gridN*gridN {
		return checkf(false, "surface has %d positions, want %d", len(s.Positions), gridN*gridN)
	}
	for _, p := range s.Positions {
		for _, ys := range [][]float64{p.Yields, p.OvYields} {
			if ys == nil && !p.HasOverlay {
				continue
			}
			if len(ys) != len(s.PeriodsPS) {
				return checkf(false, "%s: %d yields for %d periods", p.Position, len(ys), len(s.PeriodsPS))
			}
			for i, y := range ys {
				if !(y >= 0 && y <= 1) || (i > 0 && y < ys[i-1]) {
					return checkf(false, "%s: yield curve not monotone in [0,1] at point %d", p.Position, i)
				}
			}
		}
	}
	return nil
}

// svcCounts is a cumulative snapshot of the service's counters.
type svcCounts struct {
	shardsComputed, shardsCached int64
	nodesComputed, nodesHit      int64
	cacheHits, cacheMisses       int64
	evictions                    int64
	diskWrites, diskWriteErrs    int64
}

// countsOf reads the counters the engine's pipeline hooks feed, plus
// the cache and disk-tier stats when given.
func countsOf(m *service.Metrics, c *service.Cache, d *pipeline.DiskStore) svcCounts {
	s := m.Snapshot(c, nil)
	out := svcCounts{
		shardsComputed: s.Counters["yield.shards_computed"],
		shardsCached:   s.Counters["yield.shards_cached"],
	}
	for name, h := range s.Latency {
		if strings.HasPrefix(name, "artifact.") {
			out.nodesComputed += h.Count
		}
	}
	for name, n := range s.Counters {
		if strings.HasPrefix(name, "artifact_hits.") {
			out.nodesHit += n
		}
	}
	if c != nil {
		out.cacheHits, out.cacheMisses, out.evictions = s.Cache.Hits, s.Cache.Misses, s.Cache.Evictions
	}
	if d != nil {
		ds := d.Stats()
		out.diskWrites, out.diskWriteErrs = ds.Writes, ds.WriteErrors
	}
	return out
}

func (a svcCounts) sub(b svcCounts) svcCounts {
	return svcCounts{
		a.shardsComputed - b.shardsComputed, a.shardsCached - b.shardsCached,
		a.nodesComputed - b.nodesComputed, a.nodesHit - b.nodesHit,
		a.cacheHits - b.cacheHits, a.cacheMisses - b.cacheMisses,
		a.evictions - b.evictions,
		a.diskWrites - b.diskWrites, a.diskWriteErrs - b.diskWriteErrs,
	}
}

func (a svcCounts) add(b svcCounts) svcCounts {
	return svcCounts{
		a.shardsComputed + b.shardsComputed, a.shardsCached + b.shardsCached,
		a.nodesComputed + b.nodesComputed, a.nodesHit + b.nodesHit,
		a.cacheHits + b.cacheHits, a.cacheMisses + b.cacheMisses,
		a.evictions + b.evictions,
		a.diskWrites + b.diskWrites, a.diskWriteErrs + b.diskWriteErrs,
	}
}

// snapshot reads the fixture's counters, cache and disk tier included.
func (fx *fixture) snapshot() svcCounts {
	return countsOf(fx.metrics, fx.eng.Cache(), fx.disk)
}

// checkSurfaceRef pins the field_cold surface at seed 1: the mean
// critical path of a few positions, to a relative 1e-9.
func checkSurfaceRef(seed int64, s wire.Surface) error {
	if seed != 1 {
		return nil
	}
	for name, want := range seed1MeanPS {
		got := math.NaN()
		for _, p := range s.Positions {
			if p.Position == name {
				got = p.MeanPS
			}
		}
		if !(math.Abs(got-want) <= 1e-9*want) {
			return checkf(false, "seed 1 mean critical path at %s is %.9g ps, want %.9g", name, got, want)
		}
	}
	return nil
}

var seed1MeanPS = map[string]float64{
	"r0c0": 1423.86477083,
	"r3c4": 1304.9230391,
	"r7c7": 1217.55351216,
}
