package mc

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/netlist"
)

// runDigest is the SHA-256 of the canonical encoding of two Monte Carlo
// runs on the small core at position A with the recovery derates: one
// all-low, one with the first half of the cells at high supply. It
// pins the sample recipe (draw, scale, re-time) bit for bit; the
// mc/yield equivalence tests only compare the two engines with each
// other.
const runDigest = "b9008047b744bc441d3c3215daeb51548268756105d9d008afc23d79de7d4843"

func TestRunDigest(t *testing.T) {
	f := coreFixture(t)
	pos := f.model.DiagonalPositions()[0]
	n := f.a.NL.NumCells()
	half := make([]cell.Domain, n)
	for i := 0; i < n/2; i++ {
		half[i] = cell.DomainHigh
	}
	h := sha256.New()
	for _, doms := range [][]cell.Domain{nil, half} {
		res, err := Run(context.Background(), f.a, &f.model, pos, Options{
			Samples: 40, Seed: 11, ClockPS: f.clock, Derate: f.derate, Domains: doms,
		})
		if err != nil {
			t.Fatal(err)
		}
		digestResult(h, res)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != runDigest {
		t.Fatalf("mc.Run digest %s, want %s", got, runDigest)
	}
}

// digestResult writes a Result canonically: slices in order, map
// entries sorted by key.
func digestResult(h hash.Hash, r *Result) {
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	putF := func(v float64) { put(math.Float64bits(v)) }
	put(uint64(len(r.CritPS)))
	for _, c := range r.CritPS {
		putF(c)
	}
	for st := netlist.Stage(0); st < netlist.NumStages; st++ {
		d := r.PerStage[st]
		if d == nil {
			put(0)
			continue
		}
		put(uint64(len(d.SlackPS)) + 1)
		for _, s := range d.SlackPS {
			putF(s)
		}
	}
	putCounts := func(m map[int]int) {
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		put(uint64(len(keys)))
		for _, k := range keys {
			put(uint64(int64(k)))
			put(uint64(int64(m[k])))
		}
	}
	putCounts(r.EndpointViolations)
	for st := netlist.Stage(0); st < netlist.NumStages; st++ {
		putCounts(r.StageCriticals[st])
	}
}
