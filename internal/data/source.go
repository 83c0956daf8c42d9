package data

import (
	"scaffe/internal/pfs"
	"scaffe/internal/sim"
)

// Source models the I/O cost of pulling training batches from a
// storage backend. A read books the backend's resources and tells the
// reader what it waits for; the actual sample bytes come from the
// in-memory Dataset (storage contents and storage timing are decoupled,
// as everywhere else in the simulator).
type Source interface {
	// ReadBatch books reading n samples of bytesPer bytes each, starting
	// at now, and returns the waits the read takes.
	ReadBatch(now sim.Time, n int, bytesPer int64) Read
}

// Read is the waits of one batch read: the reader resumes at each of
// the first N instants of At in turn, and then, if Then is set, reads on
// from Then at the last of them. A read that must wait before it can
// book anything — out a reader stall — is an instant and a Then.
type Read struct {
	At   [2]sim.Time
	N    int
	Then Source
}

// InMemory is a zero-cost source (data already resident), used by
// micro-experiments that isolate communication behaviour.
type InMemory struct{}

// ReadBatch implements Source.
func (InMemory) ReadBatch(sim.Time, int, int64) Read { return Read{} }

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
	Lock sim.Resource
	// Disk is the shared page-cache/disk bandwidth.
	Disk sim.Resource
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
// configured reader count. Its resources are plain values, so the kernel
// argument goes unused.
func NewLMDBSource(_ *sim.Kernel, readers int) *LMDBSource {
	return &LMDBSource{
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

// ReadBatch implements Source: the reader waits out the lock and the
// disk, then decodes the records.
func (s *LMDBSource) ReadBatch(now sim.Time, n int, bytesPer int64) Read {
	// Slot acquisition serializes across every reader of the
	// environment; below 64 readers it is brief, beyond it inflates.
	lockHold := sim.Duration(float64(s.TxnCost) * s.Penalty())
	_, lockEnd := s.Lock.Reserve(now, lockHold)
	// Page reads share the environment's sequential bandwidth.
	bytes := int64(n) * bytesPer
	diskDur := sim.Duration(float64(bytes) / s.DiskBW * float64(sim.Second))
	_, diskEnd := s.Disk.Reserve(lockEnd, diskDur)
	// Cursor walking and record decode run on the reader's own thread.
	return Read{At: [2]sim.Time{diskEnd, diskEnd + sim.Duration(n)*s.PerRecord}, N: 2}
}

// ImageDataSource models Caffe's ImageDataLayer reading individual
// image files from a parallel filesystem: no shared lock, bandwidth
// aggregates across OSTs, so it keeps scaling with reader count.
type ImageDataSource struct {
	FS *pfs.FS
}

// NewImageDataSource wraps a PFS instance.
func NewImageDataSource(fs *pfs.FS) *ImageDataSource { return &ImageDataSource{FS: fs} }

// ReadBatch implements Source.
func (s *ImageDataSource) ReadBatch(now sim.Time, n int, bytesPer int64) Read {
	return Read{At: [2]sim.Time{s.FS.ReadSpread(now, int64(n)*bytesPer, n)}, N: 1}
}

// Reader is one data-reader thread feeding one solver through a
// bounded distributed queue (Figure 3), or, in the original Caffe
// design, every solver through one shared queue. The reader prefetches
// ahead of the solver up to the queue depth, hiding I/O behind compute
// when the backend can keep up. It is a proc with no goroutine: its
// steps arm the waits its source's reads take and put tokens in the
// queue, which it holds by value.
type Reader struct {
	q        sim.Queue
	proc     *sim.Proc
	src      Source
	n        int
	bytesPer int64
	batches  int  // batches to read; < 0 reads until Stop
	copies   int  // tokens each batch releases
	i        int  // the batch being read or put
	put      int  // tokens of batch i put so far
	read     Read // batch i's read
	w        int  // waits of it passed
}

// StartReader spawns a reader proc: it reads batches of n samples of
// bytesPer bytes each from src and puts copies tokens for each in a
// queue of depth tokens. A reader of batches < 0 reads until Stop —
// fault-tolerant runs use one, because their consumption count is not
// known up front (a rollback re-reads iterations and a shrink changes
// the batch geometry). The original Caffe design's single reader loads
// each iteration's global batch and releases a token per solver.
func StartReader(k *sim.Kernel, name string, src Source, n int, bytesPer int64, batches, copies, depth int) *Reader {
	r := new(Reader)
	r.Start(k, name, src, n, bytesPer, batches, copies, depth)
	return r
}

// Start is StartReader on a Reader the caller owns, so that a set of
// readers can be made as one block. r must not be running.
func (r *Reader) Start(k *sim.Kernel, name string, src Source, n int, bytesPer int64, batches, copies, depth int) {
	*r = Reader{src: src, n: n, bytesPer: bytesPer, batches: batches, copies: copies, i: -1, put: copies}
	r.q.Init(k, depth)
	r.proc = k.SpawnSteps(name, r)
}

// Step reads and puts batches up to the reader's next wait: one of its
// read's, or a full queue.
func (r *Reader) Step(p *sim.Proc) bool {
	for {
		switch {
		case r.w < r.read.N:
			p.ArmUntil(r.read.At[r.w])
			r.w++
			return false
		case r.read.Then != nil:
			r.read, r.w = r.read.Then.ReadBatch(p.Now(), r.n, r.bytesPer), 0
		case r.put < r.copies:
			if !r.q.TryPut(p) {
				return false
			}
			r.put++
		case r.batches >= 0 && r.i+1 >= r.batches:
			return true
		default:
			r.i, r.put = r.i+1, 0
			r.read, r.w = r.src.ReadBatch(p.Now(), r.n, r.bytesPer), 0
		}
	}
}

// Stop kills the reader proc (crash injection and elastic recovery).
// Safe to call more than once.
func (r *Reader) Stop() { r.proc.Kill() }

// TryNext consumes the next batch if one is buffered and reports true;
// otherwise it reports false with the solver's proc p registered to be
// resumed when the reader buffers one, without parking it: the solver
// waits as a step (sim.Stepper) and tries again then.
func (r *Reader) TryNext(p *sim.Proc) bool {
	return r.q.TryGet(p)
}
