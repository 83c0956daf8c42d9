// Package pfs models a Lustre-style parallel filesystem: a set of
// object storage targets (OSTs) with independent bandwidth, over which
// large reads stripe. Unlike the single-lock LMDB path, aggregate read
// bandwidth grows with the number of OSTs, so file-per-image reading
// (Caffe's ImageDataLayer) scales with client count — the property
// that lets S-Caffe reach 160 GPUs in Figure 8.
package pfs

import "scaffe/internal/sim"

// FS is one parallel filesystem instance.
type FS struct {
	// OSTs are the object storage targets; reads reserve them.
	OSTs []sim.Resource
	// OSTBW is the per-OST bandwidth in bytes/second.
	OSTBW float64
	// ClientBW caps a single client's ingest rate (its network link).
	ClientBW float64
	// PerFileLat is the metadata/open latency charged per file.
	PerFileLat sim.Duration
}

// New builds a filesystem with numOSTs targets. Its OSTs are plain
// sim.Resources, so the kernel argument goes unused.
func New(_ *sim.Kernel, numOSTs int, ostBW, clientBW float64) *FS {
	if numOSTs <= 0 {
		panic("pfs: need at least one OST")
	}
	return &FS{OSTs: make([]sim.Resource, numOSTs), OSTBW: ostBW, ClientBW: clientBW, PerFileLat: 30 * sim.Microsecond}
}

// Default returns the Lustre configuration used for the Cluster-A
// experiments: 48 OSTs × 3 GB/s.
func Default(k *sim.Kernel) *FS { return New(k, 48, 3e9, 10e9) }

// ReadSpread books the read, starting at now, of `bytes` spread
// uniformly over all OSTs by one client (the steady state of a
// data-reader thread pulling many image files) and returns when it ends:
// each OST serves its share at its own rate, the client is capped at
// ClientBW, and `files` metadata operations are charged.
func (f *FS) ReadSpread(now sim.Time, bytes int64, files int) sim.Time {
	share := bytes / int64(len(f.OSTs))
	perOST := sim.Duration(float64(share) / f.OSTBW * float64(sim.Second))
	end := now
	for i := range f.OSTs {
		_, e := f.OSTs[i].Reserve(now, perOST)
		if e > end {
			end = e
		}
	}
	clientTime := now + sim.Duration(float64(bytes)/f.ClientBW*float64(sim.Second))
	if clientTime > end {
		end = clientTime
	}
	return end + sim.Duration(files)*f.PerFileLat
}
