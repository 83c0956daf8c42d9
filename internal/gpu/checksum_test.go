package gpu

import (
	"math"
	"testing"
)

// fnvFold is a word-at-a-time FNV-1a fold written out independently of
// RegionChecksum, the oracle the checksums are compared against.
func fnvFold(h uint64, words []float32) uint64 {
	for _, v := range words {
		h = (h ^ uint64(math.Float32bits(v))) * 1099511628211
	}
	return h
}

func TestChecksumIncrementalMatchesRegion(t *testing.T) {
	b := NewDataBuffer(64)
	for i := range b.Data {
		b.Data[i] = float32(i)*0.25 - 3
	}
	h := fnvFold(fnvOffset64, b.Data)
	if got := b.Checksum(); got != h {
		t.Fatalf("Checksum = %#x, incremental fold = %#x", got, h)
	}
	// A split fold continues from the prefix's state.
	if mid := fnvFold(fnvFold(fnvOffset64, b.Data[:20]), b.Data[20:]); mid != h {
		t.Fatalf("split fold = %#x, want %#x", mid, h)
	}
	if got, want := b.RegionChecksum(20, 50), fnvFold(fnvOffset64, b.Data[20:50]); got != want {
		t.Fatalf("RegionChecksum(20,50) = %#x, fold = %#x", got, want)
	}
}

func TestChecksumDetectsSingleBitFlips(t *testing.T) {
	b := NewDataBuffer(16)
	for i := range b.Data {
		b.Data[i] = float32(i) + 0.5
	}
	want := b.Checksum()
	for i := range b.Data {
		for bit := 0; bit < 32; bit++ {
			orig := b.Data[i]
			b.Data[i] = math.Float32frombits(math.Float32bits(orig) ^ (1 << uint(bit)))
			if b.Checksum() == want {
				t.Fatalf("flip of bit %d in word %d undetected", bit, i)
			}
			b.Data[i] = orig
		}
	}
	if b.Checksum() != want {
		t.Fatal("restore left the buffer changed")
	}
}

func TestChecksumPayloadFreeBufferIsSeed(t *testing.T) {
	b := NewBuffer(1 << 20) // timing-mode buffer: bytes, no values
	if got := b.Checksum(); got != fnvOffset64 {
		t.Fatalf("payload-free checksum = %#x, want seed %#x", got, fnvOffset64)
	}
	if got := NewDataBuffer(0).Checksum(); got != fnvOffset64 {
		t.Fatalf("empty checksum = %#x, want seed %#x", got, fnvOffset64)
	}
}

func TestRegionChecksumComposesWithSlice(t *testing.T) {
	b := NewDataBuffer(32)
	for i := range b.Data {
		b.Data[i] = float32(i) * 1.5
	}
	if got, want := b.RegionChecksum(8, 24), b.Slice(8, 24).Checksum(); got != want {
		t.Fatalf("RegionChecksum(8,24) = %#x, Slice(8,24).Checksum() = %#x", got, want)
	}
}
