package tmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// extractDigest is the SHA-256 of the gob-encoded model Extract builds
// for the shared fixture. It pins extraction bytes across changes to
// the timing engine underneath; TestDeterministicExtraction only
// compares the code with itself.
const extractDigest = "ab3d5fbc32463bb47596ec902e41712dda96656fc24bb71931518ebe5943db11"

func TestExtractionDigest(t *testing.T) {
	f := newFix(t)
	m, err := Extract(f.in)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(encodeModel(t, m))
	if got := hex.EncodeToString(sum[:]); got != extractDigest {
		t.Fatalf("extracted model digest %s, want %s", got, extractDigest)
	}
}
