package gpu

import "math"

// FNV-1a over 32-bit words. The integrity plane checksums float
// payloads wordwise (each float32's bit pattern is one word), without
// ever materializing a byte view of the data.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Checksum hashes the buffer's whole payload. Buffers without backing
// data (timing-mode transfers model bytes, not values) return the
// FNV-1a offset basis, so checksum bookkeeping stays mode-agnostic.
func (b *Buffer) Checksum() uint64 {
	return b.RegionChecksum(0, len(b.Data))
}

// RegionChecksum hashes the element range [lo, hi) of the payload.
func (b *Buffer) RegionChecksum(lo, hi int) uint64 {
	h := fnvOffset64
	if b.Data == nil {
		return h
	}
	for _, v := range b.Data[lo:hi] {
		h = (h ^ uint64(math.Float32bits(v))) * fnvPrime64
	}
	return h
}
