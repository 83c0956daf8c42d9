package data

import (
	"scaffe/internal/pfs"
	"scaffe/internal/sim"
)

// Source models the I/O cost of pulling training batches from a
// storage backend. Implementations block the calling reader proc for
// the virtual time the read takes; the actual sample bytes come from
// the in-memory Dataset (storage contents and storage timing are
// decoupled, as everywhere else in the simulator).
type Source interface {
	// Name identifies the backend ("lmdb", "imagedata", "memory").
	Name() string
	// ReadBatch blocks p for the duration of reading n samples of
	// bytesPer bytes each.
	ReadBatch(p *sim.Proc, n int, bytesPer int64)
}

// InMemory is a zero-cost source (data already resident), used by
// micro-experiments that isolate communication behaviour.
type InMemory struct{}

// Name implements Source.
func (InMemory) Name() string { return "memory" }

// ReadBatch implements Source.
func (InMemory) ReadBatch(*sim.Proc, int, int64) {}

// LMDBSource models parallel readers over one LMDB environment. Two
// effects bound its scalability, reproducing the Figure 8 cliff:
//
//  1. Every read transaction passes through the environment's shared
//     reader-table lock (a real LMDB design point), so record pickup
//     serializes across all readers.
//  2. Beyond SlotLimit concurrent readers the per-record lock cost
//     inflates quadratically (reader-slot scans and page-cache
//     thrash), matching the paper's observation of "severe degradation
//     or race conditions" past 64 readers.
type LMDBSource struct {
	// Lock is the shared reader-table lock, held briefly per batch
	// transaction.
	Lock *sim.Resource
	// Disk is the shared page-cache/disk bandwidth.
	Disk *sim.Resource
	// DiskBW is the aggregate sequential read bandwidth.
	DiskBW float64
	// TxnCost is the reader-slot acquisition cost per batch
	// transaction (inflated past the slot limit).
	TxnCost sim.Duration
	// PerRecord is the per-record cursor/decode cost, paid locally by
	// each reader thread (concurrent across readers).
	PerRecord sim.Duration
	// Readers is the number of concurrently configured readers.
	Readers int
	// SlotLimit is the contention knee (the paper's 64).
	SlotLimit int
}

// NewLMDBSource builds the shared-environment model for the given
// configured reader count.
func NewLMDBSource(k *sim.Kernel, readers int) *LMDBSource {
	return &LMDBSource{
		Lock:      k.NewResource("lmdb.lock"),
		Disk:      k.NewResource("lmdb.disk"),
		DiskBW:    8e9,
		TxnCost:   10 * sim.Microsecond,
		PerRecord: 2 * sim.Microsecond,
		Readers:   readers,
		SlotLimit: 64,
	}
}

// Penalty returns the reader-slot cost multiplier for the configured
// reader count: 1 up to the slot limit, then quadratic growth (slot
// scans and page-cache thrash).
func (s *LMDBSource) Penalty() float64 {
	if s.Readers <= s.SlotLimit {
		return 1
	}
	over := float64(s.Readers-s.SlotLimit) / 8.0
	return 1 + float64(over*over)
}

// Name implements Source.
func (s *LMDBSource) Name() string { return "lmdb" }

// ReadBatch implements Source.
func (s *LMDBSource) ReadBatch(p *sim.Proc, n int, bytesPer int64) {
	// Slot acquisition serializes across every reader of the
	// environment; below 64 readers it is brief, beyond it inflates.
	lockHold := sim.Duration(float64(s.TxnCost) * s.Penalty())
	_, lockEnd := s.Lock.Reserve(p.Now(), lockHold)
	// Page reads share the environment's sequential bandwidth.
	bytes := int64(n) * bytesPer
	diskDur := sim.Duration(float64(bytes) / s.DiskBW * float64(sim.Second))
	_, diskEnd := s.Disk.Reserve(lockEnd, diskDur)
	p.WaitUntil(diskEnd)
	// Cursor walking and record decode run on the reader's own thread.
	p.Sleep(sim.Duration(n) * s.PerRecord)
}

// ImageDataSource models Caffe's ImageDataLayer reading individual
// image files from a parallel filesystem: no shared lock, bandwidth
// aggregates across OSTs, so it keeps scaling with reader count.
type ImageDataSource struct {
	FS *pfs.FS
}

// NewImageDataSource wraps a PFS instance.
func NewImageDataSource(fs *pfs.FS) *ImageDataSource { return &ImageDataSource{FS: fs} }

// Name implements Source.
func (s *ImageDataSource) Name() string { return "imagedata" }

// ReadBatch implements Source.
func (s *ImageDataSource) ReadBatch(p *sim.Proc, n int, bytesPer int64) {
	s.FS.ReadSpread(p, int64(n)*bytesPer, n)
}

// Reader is one data-reader thread feeding one solver through a
// bounded distributed queue (Figure 3). The reader prefetches ahead of
// the solver up to the queue depth, hiding I/O behind compute when the
// backend can keep up.
type Reader struct {
	q    *sim.Queue
	proc *sim.Proc
}

// StartReader spawns the reader proc: it loads `iterations` batches of
// n samples and enqueues a token per batch.
func StartReader(k *sim.Kernel, name string, src Source, n int, bytesPer int64, iterations, depth int) *Reader {
	r := &Reader{q: k.NewQueue(depth)}
	r.proc = k.Spawn(name, func(p *sim.Proc) {
		for i := 0; i < iterations; i++ {
			src.ReadBatch(p, n, bytesPer)
			r.q.Put(p, i)
		}
	})
	return r
}

// StartReaderLoop spawns an elastic reader: it prefetches forever
// (bounded by the queue depth) until Stop. Fault-tolerant runs use it
// because their consumption count is not known up front — a rollback
// re-reads iterations and a shrink changes the batch geometry.
func StartReaderLoop(k *sim.Kernel, name string, src Source, n int, bytesPer int64, depth int) *Reader {
	r := &Reader{q: k.NewQueue(depth)}
	r.proc = k.Spawn(name, func(p *sim.Proc) {
		for i := 0; ; i++ {
			src.ReadBatch(p, n, bytesPer)
			r.q.Put(p, i)
		}
	})
	return r
}

// Stop kills the reader proc (crash injection and elastic recovery).
// Safe to call more than once.
func (r *Reader) Stop() {
	if r.proc != nil {
		r.proc.Kill()
	}
}

// StartSharedReader spawns the original Caffe design: a single reader
// thread loads each iteration's whole batch, then releases one token
// per consuming solver through the shared queue.
func StartSharedReader(k *sim.Kernel, name string, src Source, batchPerIter int, bytesPer int64, iterations, consumers, depth int) *Reader {
	r := &Reader{q: k.NewQueue(depth)}
	r.proc = k.Spawn(name, func(p *sim.Proc) {
		for i := 0; i < iterations; i++ {
			src.ReadBatch(p, batchPerIter, bytesPer)
			for c := 0; c < consumers; c++ {
				r.q.Put(p, i)
			}
		}
	})
	return r
}

// TryNext consumes the next batch if one is buffered and reports true;
// otherwise it reports false with the solver's proc p registered to be
// resumed when the reader buffers one, without parking it: the solver
// waits as a step (sim.Stepper) and tries again then.
func (r *Reader) TryNext(p *sim.Proc) bool {
	_, ok := r.q.TryGet(p)
	return ok
}
