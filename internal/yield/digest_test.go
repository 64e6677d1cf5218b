package yield

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"vipipe/internal/cell"
	"vipipe/internal/place"
	"vipipe/internal/sta"
	"vipipe/internal/variation"
	"vipipe/internal/vex"
)

// shardDigest is the SHA-256 of the canonical encoding of one
// ComputeShard with an overlay on the small core. It pins the shard's
// sample recipe bit for bit; the surface-vs-mc.Run equivalence test
// only compares the two engines with each other.
const shardDigest = "0b9ab3295071aba40d0663d0b2733b44dfee1429a4d2ee6dc88c4467c882c99e"

func TestShardDigest(t *testing.T) {
	core, err := vex.Build(vex.SmallConfig(), cell.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Global(core.NL, place.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := sta.New(core.NL, pl)
	if err != nil {
		t.Fatal(err)
	}
	clock := a.Run(1e9, nil).CritPS * 1.001
	derate := a.SlackRecovery(clock, sta.DefaultRecoveryTargets(), 12, 25)
	model := variation.Default()
	pos, _ := model.Position("B")
	stat, err := ComputeShard(context.Background(), ShardInput{
		Kernel:  sta.NewKernel(a),
		PL:      pl,
		Model:   &model,
		Tech:    &core.NL.Lib.Tech,
		Pos:     pos,
		Overlay: &PosOverlay{Pos: pos.Name, XMM: pl.DieW / 2000, YMM: pl.DieH / 2000, RMM: pl.DieW / 4000, DeltaFrac: 0.04},
		Key:     "digest",
		Start:   7,
		Count:   30,
		Seed:    5,
		Derate:  derate,
		ClockPS: clock,
		Axis:    CurveAxis{}.Resolve(clock),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v uint64) { _ = binary.Write(h, binary.LittleEndian, v) }
	putF := func(v float64) { put(math.Float64bits(v)) }
	putM := func(m Moments) {
		put(uint64(m.Count))
		put(uint64(m.Sum.Hi))
		put(m.Sum.Lo)
		put(uint64(m.SumSq.Hi))
		put(m.SumSq.Lo)
		putF(m.Min)
		putF(m.Max)
	}
	putH := func(hist Histogram) {
		putF(hist.LoPS)
		putF(hist.HiPS)
		put(uint64(len(hist.Bins)))
		for _, b := range hist.Bins {
			put(uint64(b))
		}
		put(uint64(hist.Over))
	}
	h.Write([]byte(stat.Key + "\x00" + stat.Pos + "\x00"))
	put(uint64(stat.Shards))
	put(uint64(stat.Samples))
	putM(stat.Crit)
	putH(stat.Hist)
	if stat.HasOverlay {
		put(1)
	} else {
		put(0)
	}
	putM(stat.OvCrit)
	putH(stat.OvHist)
	if stat.OvCrit.Count == 0 || stat.OvCrit.Sum == stat.Crit.Sum {
		t.Fatalf("overlay left the shard unchanged: %+v vs %+v", stat.OvCrit, stat.Crit)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != shardDigest {
		t.Fatalf("ComputeShard digest %s, want %s", got, shardDigest)
	}
}
