package data

import (
	"runtime"
	"testing"

	"scaffe/internal/layers"
	"scaffe/internal/pfs"
	"scaffe/internal/sim"
)

func TestSyntheticDeterministic(t *testing.T) {
	d := SyntheticCIFAR10(100, 7)
	a := d.At(42)
	b := d.At(42)
	if a.Label != b.Label {
		t.Fatal("labels differ across calls")
	}
	for i := range a.Image {
		if a.Image[i] != b.Image[i] {
			t.Fatal("images differ across calls")
		}
	}
	d2 := SyntheticCIFAR10(100, 7)
	c := d2.At(42)
	if c.Label != a.Label || c.Image[0] != a.Image[0] {
		t.Fatal("same seed produced different dataset")
	}
}

func TestSyntheticGeometry(t *testing.T) {
	m := SyntheticMNIST(10, 1)
	if m.Shape() != (layers.Shape{C: 1, H: 28, W: 28}) || m.Classes() != 10 || m.Len() != 10 {
		t.Error("MNIST geometry wrong")
	}
	im := SyntheticImageNet(5, 1)
	if im.Shape().Elems() != 3*224*224 || im.Classes() != 1000 {
		t.Error("ImageNet geometry wrong")
	}
	if im.Name() != "synthetic-imagenet" {
		t.Error("name wrong")
	}
	s := im.At(3)
	if len(s.Image) != 3*224*224 || s.Label < 0 || s.Label >= 1000 {
		t.Error("sample geometry wrong")
	}
}

func TestSyntheticOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range sample")
		}
	}()
	SyntheticMNIST(5, 1).At(5)
}

func TestBatchTensorWraps(t *testing.T) {
	d := SyntheticMNIST(10, 3)
	img, labels := BatchTensor(d, 8, 4) // wraps to samples 8,9,0,1
	if len(img) != 4*28*28 || len(labels) != 4 {
		t.Fatal("batch geometry wrong")
	}
	s0 := d.At(8)
	s2 := d.At(0)
	if labels[0] != s0.Label || labels[2] != s2.Label {
		t.Error("wrapped batch picked wrong samples")
	}
	if img[0] != s0.Image[0] || img[2*28*28] != s2.Image[0] {
		t.Error("wrapped batch copied wrong images")
	}
}

func TestInMemorySourceFree(t *testing.T) {
	if rd := (InMemory{}).ReadBatch(0, 1000, 150000); rd.N != 0 || rd.Then != nil {
		t.Errorf("in-memory read waits: %+v", rd)
	}
}

// finishes returns when each of readers concurrent reads of n samples
// of bytesPer bytes from src, all issued at time zero, ends last.
func finishes(src Source, readers, n int, bytesPer int64) sim.Time {
	var latest sim.Time
	for i := 0; i < readers; i++ {
		rd := src.ReadBatch(0, n, bytesPer)
		latest = max(latest, rd.At[rd.N-1])
	}
	return latest
}

func TestLMDBPenaltyShape(t *testing.T) {
	k := sim.New()
	at64 := NewLMDBSource(k, 64).Penalty()
	at128 := NewLMDBSource(k, 128).Penalty()
	at160 := NewLMDBSource(k, 160).Penalty()
	if at64 != 1 {
		t.Errorf("penalty(64) = %v, want 1", at64)
	}
	if at128 <= at64 || at160 <= at128 {
		t.Errorf("penalty must grow past the slot limit: %v %v %v", at64, at128, at160)
	}
}

func TestLMDBSharedDiskSerializes(t *testing.T) {
	// Readers share the environment's sequential bandwidth: four
	// concurrent disk-bound batches take ~4x one batch.
	batchTime := func(readers int) sim.Duration {
		return finishes(NewLMDBSource(sim.New(), readers), readers, 256, 1<<20) // 256 MB: disk-dominated
	}
	one := batchTime(1)
	four := batchTime(4)
	if four < 3*one {
		t.Errorf("4 readers finished in %v; expected ~4x one reader's %v", four, one)
	}
}

func TestLMDBCheapBelowSlotLimit(t *testing.T) {
	// Below the slot limit, small batches cost little more with 32
	// readers than with 1: LMDB reads are MVCC and nearly lock-free.
	batchTime := func(readers int) sim.Duration {
		return finishes(NewLMDBSource(sim.New(), readers), readers, 16, 3100)
	}
	one := batchTime(1)
	many := batchTime(32)
	if many > 10*one {
		t.Errorf("32 small-batch readers took %v vs single %v; sub-limit reads should stay cheap", many, one)
	}
}

func TestImageDataSourceScales(t *testing.T) {
	// Aggregate PFS bandwidth lets N readers finish in much less than
	// N x single-reader time.
	batchTime := func(readers int) sim.Duration {
		return finishes(NewImageDataSource(pfs.Default(sim.New())), readers, 64, 150000)
	}
	one := batchTime(1)
	sixteen := batchTime(16)
	if sixteen > 8*one {
		t.Errorf("16 PFS readers took %v vs single %v; should scale sublinearly", sixteen, one)
	}
}

// stepFunc is a sim.Stepper written as a function.
type stepFunc func(p *sim.Proc) bool

func (f stepFunc) Step(p *sim.Proc) bool { return f(p) }

func TestReaderPrefetchHidesIO(t *testing.T) {
	// With queue depth 2, the solver's second read should find data
	// already buffered when compute is slower than I/O.
	k := sim.New()
	src := &fixedCostSource{cost: 10 * sim.Millisecond}
	r := StartReader(k, "reader", src, 32, 1000, 4, 1, 2)
	var waits []sim.Duration
	var before sim.Time
	computing := false
	k.SpawnSteps("solver", stepFunc(func(p *sim.Proc) bool {
		for len(waits) < 4 {
			if computing {
				computing = false
				before = p.Now()
			}
			if !r.TryNext(p) {
				return false
			}
			waits = append(waits, p.Now()-before)
			computing = true
			p.ArmUntil(p.Now() + 50*sim.Millisecond) // compute longer than I/O
			return false
		}
		return true
	}))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if waits[0] == 0 {
		t.Error("first batch should cost I/O time")
	}
	for i, w := range waits[1:] {
		if w != 0 {
			t.Errorf("batch %d not prefetched: waited %v", i+1, w)
		}
	}
}

func TestSharedReaderFeedsAllConsumers(t *testing.T) {
	k := sim.New()
	src := &fixedCostSource{cost: sim.Millisecond}
	r := StartReader(k, "reader", src, 64, 1000, 3, 4, 8)
	finished := 0
	for c := 0; c < 4; c++ {
		got := 0
		k.SpawnSteps("solver", stepFunc(func(p *sim.Proc) bool {
			for ; got < 3; got++ {
				if !r.TryNext(p) {
					return false
				}
			}
			finished++
			return true
		}))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finished != 4 {
		t.Errorf("%d consumers finished, want 4", finished)
	}
}

// TestReaderHeapObjects: a started reader is one heap object — its
// queue is a count of tokens inside it, and the queue's one getter and
// one putter wait inline — and feeding its solver batch after batch,
// through an empty queue and a full one, allocates nothing more. The
// bound is per reader over many, so the kernel's carving of their procs
// in blocks averages out; a queue that boxed its tokens or kept its
// waiters in slices made six objects a reader.
func TestReaderHeapObjects(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const readers, batches, budget = 64, 50, 1.5 // measured: 1.19
	k := sim.New()
	src := &fixedCostSource{cost: sim.Millisecond}
	rds := make([]*Reader, readers)
	for i := range rds {
		got, computing := 0, false
		k.SpawnSteps("solver", stepFunc(func(p *sim.Proc) bool {
			for ; got < batches; got++ {
				if !computing {
					if !rds[i].TryNext(p) { // the first waits for its reader
						return false
					}
					computing = true
					p.ArmUntil(p.Now() + 5*sim.Millisecond) // slower than the reads: the queue fills
					return false
				}
				computing = false
			}
			return true
		}))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range rds {
		rds[i] = StartReader(k, "reader", src, 32, 1000, batches, 1, 2)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / readers
	t.Logf("%.2f heap objects per reader", per)
	if per > budget {
		t.Errorf("%.2f heap objects per reader over %d batches, budget %.2f: the reader's queue allocates again", per, batches, budget)
	}
}

// TestStalledReadWaitsThenBooks: a read whose source has it wait before
// it books anything (Read.Then) books at the end of that wait, and the
// reader arms every wait of both parts in order.
func TestStalledReadWaitsThenBooks(t *testing.T) {
	k := sim.New()
	lmdb := NewLMDBSource(k, 1)
	src := stallFor{until: 5 * sim.Millisecond, inner: lmdb}
	r := StartReader(k, "reader", src, 16, 3100, 1, 1, 1)
	var got sim.Time
	k.SpawnSteps("solver", stepFunc(func(p *sim.Proc) bool {
		if !r.TryNext(p) {
			return false
		}
		got = p.Now()
		return true
	}))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := NewLMDBSource(sim.New(), 1).ReadBatch(5*sim.Millisecond, 16, 3100).At[1]
	if got != want {
		t.Errorf("stalled read delivered at %v, want %v", got, want)
	}
}

// stallFor is a source that waits until a time before its inner read.
type stallFor struct {
	until sim.Time
	inner Source
}

func (s stallFor) ReadBatch(now sim.Time, n int, bytesPer int64) Read {
	if s.until > now {
		return Read{At: [2]sim.Time{s.until}, N: 1, Then: s.inner}
	}
	return s.inner.ReadBatch(now, n, bytesPer)
}

type fixedCostSource struct{ cost sim.Duration }

func (f *fixedCostSource) ReadBatch(now sim.Time, n int, bytesPer int64) Read {
	return Read{At: [2]sim.Time{now + f.cost}, N: 1}
}
