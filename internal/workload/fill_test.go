package workload

import (
	"bytes"
	"math/rand"
	"testing"
)

// refFill is the payload pattern one LCG step per byte, the serial loop
// fill's eight lanes must reproduce.
func refFill(buf []byte, tag uint64) {
	s := tag*6364136223846793005 + 1442695040888963407
	for i := range buf {
		s = s*6364136223846793005 + 1442695040888963407
		buf[i] = byte(s >> 56)
	}
}

// TestFillMatchesSerialLCG holds fill to the serial reference at every
// length from 0 to 300, and checkFill to accepting each reference
// pattern and rejecting it after any single-byte change.
func TestFillMatchesSerialLCG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		for _, tag := range []uint64{0, ^uint64(0), rng.Uint64(), rng.Uint64()} {
			want := make([]byte, n)
			refFill(want, tag)
			got := make([]byte, n)
			fill(got, tag)
			if !bytes.Equal(got, want) {
				t.Fatalf("fill(len %d, tag %#x) = %x, want %x", n, tag, got, want)
			}
			if !checkFill(want, tag) {
				t.Fatalf("checkFill rejects the reference pattern (len %d, tag %#x)", n, tag)
			}
			for i := range want {
				flip := byte(1 + rng.Intn(255))
				want[i] ^= flip
				if checkFill(want, tag) {
					t.Fatalf("checkFill accepts byte %d xor %#x (len %d, tag %#x)", i, flip, n, tag)
				}
				want[i] ^= flip
			}
		}
	}
}
