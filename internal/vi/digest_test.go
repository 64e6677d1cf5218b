package vi

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// regionDigests are the SHA-256 digests of the Region vector Generate
// returns on the small core, per slicing strategy. They pin island
// generation, and the Monte Carlo checks under it, bit for bit.
var regionDigests = map[Strategy]string{
	Vertical:   "3adc378e81874760397b50446aff5af881008dc90e1fb1eb75a48bd818d33d4a",
	Horizontal: "f7d84a94230a2147ec5ec5d30b8739ea70901a501adb6097220fb38c2b7b2c64",
}

func TestRegionDigest(t *testing.T) {
	f := newFixture(t)
	for _, strat := range []Strategy{Vertical, Horizontal} {
		p := f.generate(t, strat)
		h := sha256.New()
		_ = binary.Write(h, binary.LittleEndian, int64(len(p.Region)))
		_ = binary.Write(h, binary.LittleEndian, p.Region)
		if got := hex.EncodeToString(h.Sum(nil)); got != regionDigests[strat] {
			t.Errorf("%v region digest %s, want %s", strat, got, regionDigests[strat])
		}
	}
}
