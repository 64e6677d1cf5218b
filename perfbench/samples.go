package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"vipipe/internal/obs"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile, so a tail never rests on a handful of outliers.
const tailBeyond = 10

// tail is the highest percentile of a sample set that still has
// tailBeyond samples above it, with the sample count it came from.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
}

// tailOf returns the (n-tailBeyond)-th smallest of xs, the highest
// order statistic with tailBeyond samples beyond it. It needs at least
// tailBeyond+1 samples. xs is not modified.
func tailOf(xs []float64) (tail, error) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{}, fmt.Errorf("tail needs more than %d samples, have %d", tailBeyond, n)
	}
	s := sorted(xs)
	rank := n - tailBeyond // 1-based rank of the reported sample
	return tail{Value: s[rank-1], Percentile: 100 * float64(rank) / float64(n), N: n}, nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencies collects per-operation latencies in milliseconds from any
// number of goroutines.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

// report sets <prefix>_p50_ms and <prefix>_tail_ms and records the
// tail's percentile and sample count.
func (l *latencies) report(b *bench, prefix string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, err := tailOf(l.ms)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	b.set(prefix+"_p50_ms", median(l.ms))
	b.set(prefix+"_tail_ms", t.Value)
	b.tails[prefix] = t
	return nil
}

// latencyClasses are the request classes with latency metrics, by
// metric prefix: the editor's re-sweeps and the explorer's read classes.
var latencyClasses = []string{"resweep", "whatif", "hit_sweep", "hit_char"}

// classLatencies collects latencies per request class. The map is
// filled at creation, so goroutines may add to it concurrently.
type classLatencies map[string]*latencies

func newClassLatencies() classLatencies {
	c := make(classLatencies)
	for _, name := range latencyClasses {
		c[name] = &latencies{}
	}
	return c
}

// report sets every class's latency metrics.
func (c classLatencies) report(b *bench) error {
	for _, name := range latencyClasses {
		if err := c[name].report(b, name); err != nil {
			return err
		}
	}
	return nil
}

// timeIt runs f reps times and returns the median duration of one call
// in the given unit.
func timeIt(reps int, unit time.Duration, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := obs.Now()
		f()
		ds[i] = float64(obs.Since(t0)) / float64(unit)
	}
	return median(ds)
}
