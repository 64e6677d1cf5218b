package main

// The three workloads. Each run first builds the warm service fixture
// setupReps times over its processes (setup_s is the median). serve_mixed
// then drives it in its timed phase. field_cold and paper_full measure
// the read and re-sweep latencies their timed phase does not produce
// with a sequential probe against it, run in slices between their timed
// units (cold sweeps, Flow facade calls) and outside their timing. The
// probe cycles through its seeded request sequence until the timed
// phase ends, so it samples the whole run: the reference machine's
// speed drifts by tens of percent over seconds, and a probe squeezed
// into one window would measure the drift. Each slice starts and ends with a
// garbage collection, so neither the probe nor the next timed unit
// collects the other's garbage; the fixture itself stays resident
// throughout. So every workload reports every end-to-end metric:
//
//	metric            field_cold          serve_mixed              paper_full
//	wall_s            one cold sweep      one round of the mix     one paper run
//	req_per_s         cold sweeps/s       jobs/s                   paper runs/s
//	resweep_*, whatif_*, hit_sweep_*, hit_char_*
//	                  sequential probe    under the mixed load     sequential probe
//
// With tracing on, field_cold and serve_mixed run the same timed units
// as without (the jobs' own snapshots give the service metrics), and
// paper_full times each Flow facade call and wraps the flow's store to
// time the Monte Carlo nodes. The run ends with the layer ladder
// (ladder.go).

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"vipipe"
	"vipipe/internal/obs"
	"vipipe/internal/pipeline"
	"vipipe/internal/service"
	"vipipe/internal/service/wire"
	"vipipe/internal/vi"
)

const (
	// setupReps is the number of fixture builds per run.
	setupReps = 3
	// probeResweeps and probeReads size the sequential probe: re-sweeps,
	// and reads of each explorer class.
	probeResweeps = 40
	probeReads    = 100
	// fieldProbeSlice and paperProbeSlice are the probe requests run
	// after each cold sweep and each Flow facade call: a pass of the
	// probe sequence takes about ten cold sweeps or one paper run (24
	// facade calls). Three cold sweeps, the fewest a process runs,
	// give every request class more than tailBeyond samples.
	fieldProbeSlice = 34
	paperProbeSlice = 15
	// minUnits is the least number of timed units (cold sweeps, serve
	// rounds) per process, so wall_s is a median even for short runs.
	minUnits = 3
	// roundResweeps and roundReads are one serve_mixed round: the
	// editor's and the explorer's quota, sized so both clients stay
	// busy for most of the round.
	roundResweeps = 4
	roundReads    = 64
	// roundsPerSecond sets serve_mixed's fixed amount of work: a run
	// serves this many rounds per requested second, which takes about
	// that long on the reference VM. Fixed work keeps the job count, and
	// with it the Manager's job table and peak RSS, independent of how
	// fast the machine happens to be.
	roundsPerSecond = 4
)

// setup builds the fixture b.setups times, records each build time and
// returns the last fixture; the others are closed.
func setup(ctx context.Context, b *bench) (*fixture, error) {
	var fx *fixture
	for i := 0; i < b.setups; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := obs.Now()
		var err error
		fx, err = newFixture(ctx, b.seed, fmt.Sprintf("%s/store-%d", b.dir, i))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, obs.Since(t0).Seconds())
	}
	b.tally.op(checkSurfaceRef(b.seed, fx.surface))
	return fx, nil
}

// probeOp is one probe request: a re-sweep or an explorer read.
type probeOp struct {
	resweep bool
	read    exploreOp
}

// probeSequence is the probe's seeded request order: the first
// probeReads requests of each read class of the explorer mix, with the
// probeResweeps re-sweeps spread evenly among them.
func probeSequence(seed int64) []probeOp {
	var reads []exploreOp
	n := make(map[string]int)
	for _, op := range exploreMix(seed, 8*probeReads) {
		if c := op.class(); n[c] < probeReads {
			n[c]++
			reads = append(reads, op)
		}
	}
	ops := make([]probeOp, 0, len(reads)+probeResweeps)
	every := len(reads) / probeResweeps
	for i, op := range reads {
		if i%every == 0 && i/every < probeResweeps {
			ops = append(ops, probeOp{resweep: true})
		}
		ops = append(ops, probeOp{read: op})
	}
	return ops
}

// prober runs the probe against a fixture in slices, cycling through
// the probe sequence.
type prober struct {
	fx     *fixture
	js     *jobStats
	ops    []probeOp
	next   int // probe requests run so far
	before svcCounts
}

func newProber(fx *fixture, seed int64, js *jobStats) *prober {
	return &prober{fx: fx, js: js, ops: probeSequence(seed), before: fx.snapshot()}
}

// step runs the next n probe requests between two garbage collections,
// so the probe does not collect the previous timed unit's garbage and
// the next timed unit starts from a collected heap. An untimed warm
// read goes first: the first request after a timed unit runs on caches
// the unit has evicted, and took up to 1.4 times the median on the
// reference machine, which would put one such request per slice into
// the tails.
func (p *prober) step(ctx context.Context, b *bench, n int) {
	runtime.GC()
	_, err := p.fx.read(ctx, exploreOp{Kind: "sweep"}, nil)
	b.tally.op(err)
	for ; n > 0; n-- {
		op := p.ops[p.next%len(p.ops)]
		p.next++
		var d time.Duration
		class := "resweep"
		if op.resweep {
			d, err = p.fx.resweep(ctx, p.js)
		} else {
			d, err = p.fx.read(ctx, op.read, p.js)
			class = op.read.class()
		}
		b.tally.op(err)
		b.lat[class].add(d)
	}
	runtime.GC()
}

// counts returns the service counters the probe moved.
func (p *prober) counts() svcCounts { return p.fx.snapshot().sub(p.before) }

// jobStats returns a collector for traced runs, nil otherwise.
func (b *bench) jobStats() *jobStats {
	if b.trace {
		return &jobStats{}
	}
	return nil
}

// fieldCold times cold 8x8 field sweeps, each on a fresh engine with a
// memory cache only, until the run's time is up.
func fieldCold(ctx context.Context, b *bench) error {
	fx, err := setup(ctx, b)
	if err != nil {
		return err
	}
	defer fx.close()
	b.hash = smallSpec(b.seed).ToConfig().Hash()
	js := b.jobStats()
	p := newProber(fx, b.seed, js)

	var layer svcCounts
	start := obs.Now()
	for i := 0; i < minUnits || obs.Since(start) < b.seconds; i++ {
		m := service.NewMetrics()
		eng := service.NewEngine(service.NewCache(64<<20), m)
		t0 := obs.Now()
		v, err := eng.Run(ctx, fieldRequest(b.seed))
		d := obs.Since(t0).Seconds()
		if err == nil {
			c := countsOf(m, eng.Cache(), nil)
			layer = layer.add(c)
			err = checkColdSweep(v, fx.surface, c)
		}
		b.tally.op(err)
		b.units = append(b.units, d)
		b.requests++
		b.requestS += d
		p.step(ctx, b, fieldProbeSlice)
	}
	if !b.trace {
		return nil
	}
	return traceTail(ctx, b, layer.add(p.counts()), js, nil)
}

// checkColdSweep checks a cold sweep: all 256 shards computed, none
// reused, and the same surface the fixture's identical sweep built.
func checkColdSweep(v any, ref wire.Surface, c svcCounts) error {
	s, ok := v.(wire.Surface)
	if !ok {
		return checkf(false, "cold sweep returned %T, want a surface", v)
	}
	if err := checkSurface(s); err != nil {
		return err
	}
	if err := checkf(c.shardsComputed == 256 && c.shardsCached == 0,
		"cold sweep computed %d and reused %d shards, want 256 and 0", c.shardsComputed, c.shardsCached); err != nil {
		return err
	}
	return checkf(reflect.DeepEqual(s, ref), "cold sweep differs from the fixture's identical sweep")
}

// serveMixed drives the warm fixture with two closed-loop clients in
// rounds: an editor submitting roundResweeps re-sweeps back to back
// and an explorer submitting roundReads reads. A round ends when both
// are done.
func serveMixed(ctx context.Context, b *bench) error {
	fx, err := setup(ctx, b)
	if err != nil {
		return err
	}
	defer fx.close()
	b.hash = smallSpec(b.seed).ToConfig().Hash()

	js := b.jobStats()
	mix := exploreMix(b.seed, 1<<14)
	next := 0
	before := fx.snapshot()
	start := obs.Now()
	rounds := max(minUnits, int(roundsPerSecond*b.seconds.Seconds()))
	for r := 0; r < rounds; r++ {
		t0 := obs.Now()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < roundResweeps; i++ {
				d, err := fx.resweep(ctx, js)
				b.tally.op(err)
				b.lat["resweep"].add(d)
			}
		}()
		for i := 0; i < roundReads; i++ {
			op := mix[next%len(mix)]
			next++
			d, err := fx.read(ctx, op, js)
			b.tally.op(err)
			b.lat[op.class()].add(d)
		}
		wg.Wait()
		b.units = append(b.units, obs.Since(t0).Seconds())
	}
	b.requests += float64(rounds * (roundResweeps + roundReads))
	b.requestS += obs.Since(start).Seconds()
	if !b.trace {
		return nil
	}
	return traceTail(ctx, b, fx.snapshot().sub(before), js, nil)
}

// paperFull times the full-size paper run (what cmd/vipipe
// -experiment all computes) through the Flow facade.
func paperFull(ctx context.Context, b *bench) error {
	fx, err := setup(ctx, b)
	if err != nil {
		return err
	}
	defer fx.close()
	cfg := vipipe.DefaultConfig()
	cfg.Seed = b.seed
	b.hash = cfg.Hash()
	js := b.jobStats()
	p := newProber(fx, b.seed, js)

	var ft *flowTimes
	if b.trace {
		ft = &flowTimes{}
	}
	wall, err := paperRun(ctx, b, cfg, ft, func() { p.step(ctx, b, paperProbeSlice) })
	if err != nil {
		return err
	}
	b.units = append(b.units, wall)
	b.requests++
	b.requestS += wall
	if !b.trace {
		return nil
	}
	ft.wallMS = wall * 1e3
	return traceTail(ctx, b, p.counts().add(ft.counts), js, ft)
}

// paperOut is what the paper run's checks look at, per strategy.
type paperOut struct {
	shifters int
	ladder   []int     // scenario per position A..D
	power    []float64 // total and leakage mW of every power report
}

// flowTimes attributes a traced paper run's wall time to the Flow
// facade calls, and its Monte Carlo node computes to mc.Run.
type flowTimes struct {
	ms     map[string]float64 // facade call group -> total ms
	wallMS float64
	mcMS   []float64
	mcN    int       // samples per mc.Run
	counts svcCounts // the flows' graph node computes and hits
}

func (ft *flowTimes) time(name string, f func() error) error {
	if ft == nil {
		return f()
	}
	t0 := obs.Now()
	err := f()
	if ft.ms == nil {
		ft.ms = make(map[string]float64)
	}
	ft.ms[name] += float64(obs.Since(t0)) / 1e6
	return err
}

// paperCalls runs a paper run's Flow facade calls: it times each into
// ft when tracing (ft may be nil), and runs gap (which may be nil)
// after every call, outside the run's wall time.
type paperCalls struct {
	ft      *flowTimes
	gap     func()
	gapTime time.Duration
}

func (c *paperCalls) do(name string, f func() error) error {
	err := c.ft.time(name, f)
	if c.gap != nil {
		t0 := obs.Now()
		c.gap()
		c.gapTime += obs.Since(t0)
	}
	return err
}

// paperRun is the paper's experimental section: for each slicing
// strategy a fresh flow runs synthesis through characterization,
// simulates the FIR workload, takes the chip-wide baseline at A-D,
// generates islands, inserts level shifters, re-simulates and prices
// the scenario designs at A-C. With ft non-nil every facade call is
// timed, the characterization split into its graph steps, and the
// flow's store is wrapped to time each Monte Carlo node. It returns
// the run's wall time in seconds, less the time spent in gap.
func paperRun(ctx context.Context, b *bench, cfg vipipe.Config, ft *flowTimes, gap func()) (float64, error) {
	c := &paperCalls{ft: ft, gap: gap}
	t0 := obs.Now()
	var outs []paperOut
	for _, strat := range []vi.Strategy{vi.Horizontal, vi.Vertical} {
		out, err := paperStrategy(ctx, cfg, strat, c)
		b.tally.op(err)
		if err != nil {
			return 0, err
		}
		outs = append(outs, out)
	}
	b.tally.op(checkPaper(cfg, outs))
	return (obs.Since(t0) - c.gapTime).Seconds(), nil
}

func paperStrategy(ctx context.Context, cfg vipipe.Config, strat vi.Strategy, c *paperCalls) (paperOut, error) {
	var out paperOut
	var f *vipipe.Flow
	var ts *timedStore
	if c.ft == nil {
		f = vipipe.New(cfg)
		if err := c.do("characterize", func() error { return f.Run(ctx) }); err != nil {
			return out, err
		}
	} else {
		ts = newTimedStore(pipeline.NewMemStore())
		f = vipipe.NewWithStore(cfg, ts)
		for _, step := range []struct {
			name string
			fn   func(context.Context) error
		}{{"synth", f.Synthesize}, {"place", f.Place}, {"analyze", f.Analyze}, {"characterize", f.Characterize}} {
			if err := c.do(step.name, func() error { return step.fn(ctx) }); err != nil {
				return out, err
			}
		}
	}
	if err := c.do("workload", func() error { return f.SimulateWorkload(ctx) }); err != nil {
		return out, err
	}
	positions := cfg.Model.DiagonalPositions()
	for _, pos := range positions {
		res, ok := f.MC[pos.Name]
		if !ok {
			return out, fmt.Errorf("no characterization at %s", pos.Name)
		}
		sc, _ := res.Classify(0)
		out.ladder = append(out.ladder, int(sc))
		err := c.do("power", func() error {
			rep, err := f.ChipWidePower(pos)
			if err == nil {
				out.power = append(out.power, rep.TotalMW(), rep.LeakMW)
			}
			return err
		})
		if err != nil {
			return out, err
		}
	}
	var part *vi.Partition
	err := c.do("islands", func() (err error) {
		part, err = f.GenerateIslands(ctx, strat)
		return err
	})
	if err != nil {
		return out, err
	}
	err = c.do("insert_shifters", func() (err error) {
		out.shifters, _, err = f.InsertShifters(ctx, part)
		return err
	})
	if err != nil {
		return out, err
	}
	if err := c.do("workload", func() error { return f.SimulateWorkload(ctx) }); err != nil {
		return out, err
	}
	for k, pos := range positions[:3] {
		err := c.do("power", func() error {
			rep, err := f.ScenarioPower(part, 3-k, pos)
			if err == nil {
				out.power = append(out.power, rep.TotalMW(), rep.LeakMW)
			}
			return err
		})
		if err != nil {
			return out, err
		}
	}
	if ts != nil {
		c.ft.mcMS = append(c.ft.mcMS, ts.computeMS("mc/")...)
		c.ft.mcN = cfg.MCSamples
		c.ft.counts = c.ft.counts.add(ts.snapshot())
	}
	return out, nil
}

// checkPaper checks the paper run: the scenario ladder does not
// increase from A to D and ends at 0, each strategy inserts shifters,
// every power report is finite and positive, and at the default configuration with seed 1 the shifter counts are
// the reproduced Table 2 values.
func checkPaper(cfg vipipe.Config, outs []paperOut) error {
	for i, o := range outs {
		for k := 1; k < len(o.ladder); k++ {
			if o.ladder[k] > o.ladder[k-1] {
				return checkf(false, "scenario ladder %v increases", o.ladder)
			}
		}
		if len(o.ladder) != 4 || o.ladder[3] != 0 {
			return checkf(false, "scenario ladder %v does not end at 0 at D", o.ladder)
		}
		if o.shifters < 1 {
			return checkf(false, "strategy %d inserted no level shifters", i)
		}
		for _, v := range o.power {
			if !(v > 0) || math.IsInf(v, 0) {
				return checkf(false, "strategy %d: power report value %g not finite and positive", i, v)
			}
		}
	}
	ref := vipipe.DefaultConfig()
	if cfg.Hash() == ref.Hash() {
		return checkf(outs[0].shifters == 1227 && outs[1].shifters == 1320,
			"seed 1 shifters %d/%d, want 1227/1320", outs[0].shifters, outs[1].shifters)
	}
	return nil
}

// traceTail sets the per-layer metrics common to every workload from
// the measured phase's counters and job stats, then runs the layer
// ladder. ft carries the paper run's facade timings; without it the
// ladder times the facade on the reduced core.
func traceTail(ctx context.Context, b *bench, c svcCounts, js *jobStats, ft *flowTimes) error {
	b.set("yield.shards_computed", float64(c.shardsComputed))
	b.set("yield.shards_cached", float64(c.shardsCached))
	b.set("pipeline.nodes_computed", float64(c.nodesComputed))
	b.set("pipeline.nodes_hit", float64(c.nodesHit))
	b.set("service.queue_wait_ms", median(js.queueWait.ms))
	b.set("service.run_ms", median(js.run.ms))
	if n := c.cacheHits + c.cacheMisses; n > 0 {
		b.set("service.cache_hit_rate", float64(c.cacheHits)/float64(n))
	} else {
		b.set("service.cache_hit_rate", 0)
	}
	b.set("service.cache_evictions", float64(c.evictions))
	b.set("diskstore.writes", float64(c.diskWrites))
	b.set("diskstore.write_errors", float64(c.diskWriteErrs))
	if err := ladder(ctx, b, ft); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	setRuntimeMetrics(b)
	return nil
}

// setRuntimeMetrics reads the Go runtime's whole-run GC CPU share and
// cumulative heap allocation.
func setRuntimeMetrics(b *bench) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	gc, total := s[0].Value.Float64(), s[1].Value.Float64()
	if total > 0 {
		b.set("go.gc_cpu_frac", gc/total)
	} else {
		b.set("go.gc_cpu_frac", 0)
	}
	b.set("go.alloc_mb", float64(s[2].Value.Uint64())/(1<<20))
}
