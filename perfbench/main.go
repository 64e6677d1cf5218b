// Command perfbench is the repository's benchmark. One run measures
// one workload for a fixed time and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of endToEnd;
// with -trace 1 they are the per-layer metrics of perLayer. Every
// workload reports every metric of its set. Usage, from the
// repository root:
//
//	bash perfbench/run.sh --workload field_cold --seed 1 --seconds 10 --trace 0
//
// The benchmark times calls into the program's public functions from
// outside; it adds no instrumentation to the program. Inputs derive
// from -seed only, and every operation's output is checked: an
// operation that errors or fails a check counts in "failed" and makes
// "correct" false.
//
// An untraced run of a workload listed in processes splits its time
// over that many child processes of this binary (-part), run one after
// the other, and pools their samples before taking any median. On the
// reference machine the median latency of the same sequential reads
// differs more between processes than between equally long stretches
// of one process: quartile to quartile, 0.20 of the median over ten
// 30-second field_cold runs in separate processes against 0.09 over
// eight in one process. Pooling three processes brought the ten-run
// spread to 0.04.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// layerDef is a per-layer metric plus the end-to-end metric and
// workload it is expected to move.
type layerDef struct {
	metricDef
	Moves string
}

// endToEnd lists the metrics a run prints with -trace 0. Every
// workload reports each one; see workloads.go for what a metric
// measures on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"resweep_p50_ms", "ms", "lower"},
	{"resweep_tail_ms", "ms", "lower"},
	{"whatif_p50_ms", "ms", "lower"},
	{"whatif_tail_ms", "ms", "lower"},
	{"hit_sweep_p50_ms", "ms", "lower"},
	{"hit_sweep_tail_ms", "ms", "lower"},
	{"hit_char_p50_ms", "ms", "lower"},
	{"hit_char_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the metrics a run prints with -trace 1, named after
// the repository's modules. Moves records the prediction each metric
// exists to test.
var perLayer = []layerDef{
	{metricDef{"stats.derive_stream_ns", "ns", "lower"}, "wall_s on field_cold"},
	{metricDef{"variation.draw_ns_per_cell", "ns", "lower"}, "wall_s on field_cold"},
	{metricDef{"cell.scale_ns_per_cell", "ns", "lower"}, "wall_s on field_cold; resweep_p50_ms on serve_mixed"},
	{metricDef{"cell.scale_share", "frac", "lower"}, "wall_s on field_cold (the scaler's share of yield.shard_ns_per_sample)"},
	{metricDef{"sta.kernel_run_ns_per_sample", "ns", "lower"}, "wall_s on field_cold, paper_full"},
	{metricDef{"sta.kernel_rerun_ns_per_sample", "ns", "lower"}, "resweep_p50_ms on serve_mixed"},
	{metricDef{"sta.new_kernel_us", "us", "lower"}, "wall_s on field_cold"},
	{metricDef{"sta.analyzer_run_ms", "ms", "lower"}, "wall_s on paper_full; whatif_tail_ms on serve_mixed"},
	{metricDef{"yield.shard_ns_per_sample", "ns", "lower"}, "wall_s on field_cold"},
	{metricDef{"yield.fold_ns_per_sample", "ns", "lower"}, "wall_s on field_cold"},
	{metricDef{"yield.unattributed_ns_per_sample", "ns", "lower"}, "wall_s on field_cold"},
	{metricDef{"yield.merge_us", "us", "lower"}, "resweep_p50_ms on serve_mixed"},
	{metricDef{"yield.surface_us", "us", "lower"}, "resweep_p50_ms on serve_mixed"},
	{metricDef{"yield.shards_computed", "count", "lower"}, "resweep_p50_ms on serve_mixed (4 of 256 per re-sweep)"},
	{metricDef{"yield.shards_cached", "count", "higher"}, "resweep_p50_ms on serve_mixed (252 of 256 per re-sweep)"},
	{metricDef{"mc.run_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"mc.ns_per_sample", "ns", "lower"}, "wall_s on paper_full"},
	{metricDef{"tmodel.eval_composed_us", "us", "lower"}, "whatif_p50_ms on serve_mixed"},
	{metricDef{"tmodel.eval_overlay_us", "us", "lower"}, "whatif_p50_ms on serve_mixed"},
	{metricDef{"tmodel.extract_ms", "ms", "lower"}, "setup_s on serve_mixed; wall_s on paper_full"},
	{metricDef{"pipeline.request_hit_us", "us", "lower"}, "hit_sweep_p50_ms, hit_char_p50_ms, whatif_p50_ms on serve_mixed"},
	{metricDef{"pipeline.nodes_computed", "count", "lower"}, "hit_sweep_p50_ms, hit_char_p50_ms, whatif_p50_ms on serve_mixed"},
	{metricDef{"pipeline.nodes_hit", "count", "higher"}, "hit_sweep_p50_ms, hit_char_p50_ms, whatif_p50_ms on serve_mixed"},
	{metricDef{"service.queue_wait_ms", "ms", "lower"}, "resweep_tail_ms, whatif_tail_ms, hit_sweep_tail_ms, hit_char_tail_ms on serve_mixed"},
	{metricDef{"service.run_ms", "ms", "lower"}, "resweep_tail_ms, whatif_tail_ms, hit_sweep_tail_ms, hit_char_tail_ms on serve_mixed"},
	{metricDef{"service.cache_hit_rate", "frac", "higher"}, "hit_sweep_tail_ms, hit_char_tail_ms on serve_mixed"},
	{metricDef{"service.cache_evictions", "count", "lower"}, "resweep_tail_ms on serve_mixed"},
	{metricDef{"storecodec.encode_ns_per_byte", "ns", "lower"}, "resweep_p50_ms on serve_mixed"},
	{metricDef{"storecodec.decode_ns_per_byte", "ns", "lower"}, "resweep_p50_ms on serve_mixed"},
	{metricDef{"diskstore.put_us", "us", "lower"}, "resweep_p50_ms on serve_mixed"},
	{metricDef{"diskstore.get_us", "us", "lower"}, "resweep_p50_ms on serve_mixed"},
	{metricDef{"diskstore.writes", "count", "higher"}, "resweep_p50_ms on serve_mixed"},
	{metricDef{"diskstore.write_errors", "count", "lower"}, "resweep_p50_ms on serve_mixed"},
	{metricDef{"flow.synth_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"flow.place_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"flow.analyze_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"flow.characterize_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"flow.workload_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"flow.islands_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"flow.insert_shifters_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"flow.power_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"flow.unattributed_ms", "ms", "lower"}, "wall_s on paper_full"},
	{metricDef{"go.gc_cpu_frac", "frac", "lower"}, "any"},
	{metricDef{"go.alloc_mb", "MB", "lower"}, "any"},
}

// processes is how many child processes an untraced run of a workload
// uses. paper_full's timed unit is one paper run of about 25 s, which
// cannot be split, so it runs in one process.
var processes = map[string]int{"field_cold": 3, "serve_mixed": 3, "paper_full": 1}

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := make(map[string]string)
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the provenance-stamped result a run prints before the
// result line.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Processes  int               `json:"processes"`
	Trace      bool              `json:"trace"`
	Commit     string            `json:"commit"`
	SourceHash string            `json:"source_hash"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	ConfigHash string            `json:"config_hash"`
	Counts     map[string]int    `json:"counts,omitempty"`
	Tails      map[string]tail   `json:"tails,omitempty"`
	Errors     []string          `json:"errors,omitempty"`
	Result     result            `json:"result"`
	Moves      map[string]string `json:"moves,omitempty"`
}

// tally counts attempted operations and failures, keeping the first
// few failure messages for the record.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// op records one operation; err non-nil marks it failed.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// samples is what one process measures for the end-to-end metrics,
// before any median is taken, so that several processes' samples can
// be pooled. A child process prints it as its last line.
type samples struct {
	SetupS    []float64            `json:"setup_s"`    // each fixture build
	UnitS     []float64            `json:"unit_s"`     // each timed unit (cold sweep, serve round, paper run)
	Requests  float64              `json:"requests"`   // requests the timed units completed
	RequestS  float64              `json:"request_s"`  // the time they took
	LatencyMS map[string][]float64 `json:"latency_ms"` // by request class
	PeakRSSMB float64              `json:"peak_rss_mb"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Hash      string               `json:"config_hash"`
}

// bench is one run: its settings, its tally and the metrics it fills.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory for disk stores
	setups  int    // fixture builds in this process

	tally   tally
	metrics map[string]float64
	counts  map[string]int
	tails   map[string]tail
	hash    string // config hash of the workload's main configuration

	// The end-to-end samples; see samples.
	setupS             []float64
	units              []float64
	requests, requestS float64
	lat                classLatencies
	peakRSS            float64 // MB, the highest of the run's processes
}

func newBench(seed int64, seconds time.Duration, trace bool, dir string, setups int) *bench {
	return &bench{
		seed: seed, seconds: seconds, trace: trace, dir: dir, setups: setups,
		metrics: make(map[string]float64),
		counts:  make(map[string]int),
		tails:   make(map[string]tail),
		lat:     newClassLatencies(),
	}
}

// samples returns what this process measured.
func (b *bench) samples() samples {
	s := samples{
		SetupS: b.setupS, UnitS: b.units, Requests: b.requests, RequestS: b.requestS,
		LatencyMS: make(map[string][]float64), PeakRSSMB: peakRSSMB(),
		Attempted: b.tally.attempted, Failed: b.tally.failed, Errors: b.tally.errs, Hash: b.hash,
	}
	for name, l := range b.lat {
		s.LatencyMS[name] = l.ms
	}
	return s
}

// pool adds a child process's samples to the run's.
func (b *bench) pool(s samples) {
	b.setupS = append(b.setupS, s.SetupS...)
	b.units = append(b.units, s.UnitS...)
	b.requests += s.Requests
	b.requestS += s.RequestS
	for name, ms := range s.LatencyMS {
		if l, ok := b.lat[name]; ok {
			l.ms = append(l.ms, ms...)
		}
	}
	b.tally.attempted += s.Attempted
	b.tally.failed += s.Failed
	b.tally.errs = append(b.tally.errs, s.Errors...)
	b.hash = s.Hash
	b.peakRSS = math.Max(b.peakRSS, s.PeakRSSMB)
}

// setEndToEnd sets the end-to-end metrics from the pooled samples.
func (b *bench) setEndToEnd() error {
	if len(b.setupS) == 0 || len(b.units) == 0 || b.requestS <= 0 {
		return fmt.Errorf("no timed units were measured")
	}
	b.set("setup_s", median(b.setupS))
	b.set("wall_s", median(b.units))
	b.set("req_per_s", b.requests/b.requestS)
	b.set("peak_rss_mb", b.peakRSS)
	return b.lat.report(b)
}

func (b *bench) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	b.metrics[name] = v
}

var workloads = map[string]func(context.Context, *bench) error{
	"field_cold":  fieldCold,
	"serve_mixed": serveMixed,
	"paper_full":  paperFull,
}

func main() {
	workload := flag.String("workload", "", "field_cold, serve_mixed or paper_full")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	part := flag.Int("part", 0, "run as one of this many child processes of an untraced run and print its samples")
	flag.Parse()
	var err error
	if *part > 0 {
		err = runPart(*workload, *seed, *seconds, *part, os.Stdout)
	} else {
		err = run(*workload, *seed, *seconds, *trace, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// inProcess runs a workload in this process: setups fixture builds,
// then the timed phase of the given length.
func inProcess(workload string, seed int64, seconds time.Duration, trace bool, setups int) (*bench, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	scratch := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := newBench(seed, seconds, trace, dir, setups)
	if err := fn(context.Background(), b); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return b, nil
}

// runPart is one of parts child processes of an untraced run: it
// measures its share of the run's fixture builds and time and prints
// its samples as one JSON line.
func runPart(workload string, seed int64, seconds, parts int, w io.Writer) error {
	b, err := inProcess(workload, seed, time.Duration(seconds)*time.Second/time.Duration(parts), false, max(1, setupReps/parts))
	if err != nil {
		return err
	}
	line, err := json.Marshal(b.samples())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// inChildren runs an untraced run as parts child processes of this
// binary, one after the other, and pools their samples.
func inChildren(workload string, seed int64, seconds, parts int) (*bench, error) {
	b := newBench(seed, time.Duration(seconds)*time.Second, false, "", 0)
	for i := 0; i < parts; i++ {
		s, err := runChild("-workload", workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-part", fmt.Sprint(parts))
		if err != nil {
			return nil, fmt.Errorf("%s: child process %d of %d: %w", workload, i+1, parts, err)
		}
		b.pool(s)
	}
	return b, nil
}

// runChild runs this binary with args and reads the samples it prints.
// The child is killed if the thread that started it exits, so the
// thread stays locked until the child has ended: a child must not
// outlive a run that is stopped.
func runChild(args ...string) (samples, error) {
	var s samples
	exe, err := os.Executable()
	if err != nil {
		return s, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return s, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	err = json.Unmarshal([]byte(lines[len(lines)-1]), &s)
	return s, err
}

func run(workload string, seed int64, seconds, trace int, w io.Writer) error {
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	var b *bench
	var err error
	parts := processes[workload]
	switch {
	case trace == 1:
		b, err = inProcess(workload, seed, time.Duration(seconds)*time.Second, true, setupReps)
	case parts > 1:
		b, err = inChildren(workload, seed, seconds, parts)
		if err == nil {
			err = b.setEndToEnd()
		}
	default:
		b, err = inProcess(workload, seed, time.Duration(seconds)*time.Second, false, setupReps)
		if err == nil {
			b.peakRSS = peakRSSMB()
			err = b.setEndToEnd()
		}
	}
	if err != nil {
		return err
	}

	res := result{
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   make(map[string]metric),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	want := endToEnd
	if b.trace {
		want = nil
		for _, d := range perLayer {
			want = append(want, d.metricDef)
		}
	}
	for _, d := range want {
		v, ok := b.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}

	rec := record{
		Workload: workload, Seed: seed, Seconds: seconds, Processes: 1, Trace: b.trace,
		Commit: commit(), SourceHash: sourceHash(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		ConfigHash: b.hash, Counts: b.counts, Tails: b.tails, Errors: b.tally.errs, Result: res,
	}
	if !b.trace {
		rec.Processes = parts
	}
	if b.trace {
		rec.Moves = make(map[string]string)
		for _, d := range perLayer {
			rec.Moves[d.Name] = d.Moves
		}
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", recLine)
	printTable(w, res)
	_, err = fmt.Fprintf(w, "%s\n", resLine)
	return err
}

// printTable prints every metric by name with its unit, for people.
func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// commit is the VCS revision the binary was built from, or "unknown"
// when the sources carry no repository metadata.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceHash identifies the measured sources where no commit is
// recorded: a SHA-256 over the path and contents of every .go file and
// go.mod under the working directory, outside hidden directories.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

// checkf returns a check failure when ok is false.
func checkf(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("check failed: "+format, args...)
}
