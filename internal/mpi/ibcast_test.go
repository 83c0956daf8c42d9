package mpi

import (
	"math/rand"
	"runtime"
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// TestBcastOpBytesPerRank gates the broadcast op's footprint. SC-OB
// posts every parameter layer's broadcast up front, and ranks that finish
// an iteration post the next one's before the slowest leaves have their
// data, so a 1,024-rank GoogLeNet run holds 128 ops at once. A pool-miss
// op over a payload-free world is the record and one request pointer per
// rank: at most 8 bytes a rank plus a small constant, and no per-rank
// buffer slice. The constant covers the record and the allocator's
// rounding of the slot slice to its size class (9,472 bytes for 1,024
// pointers and the allocation header), 1,408 bytes in all: a second byte
// a rank would exceed it. An op whose ranks post payloads makes exactly
// one object more, that slice.
func TestBcastOpBytesPerRank(t *testing.T) {
	const ranks, ops, slack = 1024, 32, 2048
	c := topology.New(sim.New(), "test", ranks/16, 16, topology.DefaultParams())
	w := NewWorld(c, ranks)
	// post makes ops pool-miss ops and posts every rank on each, as
	// Ibcast does (buffer, then request slot), and returns the last with
	// the objects and bytes made per op: averaging over several ops
	// smooths the allocator's per-span accounting of small objects.
	post := func(payload bool) (op *bcastOp, objects, bytes uint64) {
		bufs := make([]*gpu.Buffer, ranks)
		for i := range bufs {
			if payload {
				bufs[i] = gpu.NewDataBuffer(4)
			} else {
				bufs[i] = gpu.NewBuffer(16)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range ops {
			op = w.getBcastOp(ranks)
			for i, buf := range bufs {
				op.setBuf(i, buf)
				op.reqs[i] = fired
			}
		}
		runtime.ReadMemStats(&after)
		return op, (after.Mallocs - before.Mallocs) / ops, (after.TotalAlloc - before.TotalAlloc) / ops
	}

	free, freeObjects, freeBytes := post(false)
	t.Logf("payload-free op over %d ranks: %d objects, %d bytes", ranks, freeObjects, freeBytes)
	if freeBytes > 8*ranks+slack {
		t.Errorf("a payload-free op over %d ranks allocated %d bytes; want at most %d (8 a rank + %d)", ranks, freeBytes, 8*ranks+slack, slack)
	}
	if free.bufs != nil {
		t.Errorf("a payload-free op made a per-rank buffer slice of %d", len(free.bufs))
	}
	if free.bufOf(ranks-1) != free.buf {
		t.Errorf("a payload-free op's ranks do not share its first buffer")
	}

	data, dataObjects, dataBytes := post(true)
	t.Logf("payload op over %d ranks: %d objects, %d bytes", ranks, dataObjects, dataBytes)
	if dataObjects != freeObjects+1 {
		t.Errorf("a payload op made %d objects, the payload-free op %d; want exactly one more", dataObjects, freeObjects)
	}
	if len(data.bufs) != ranks {
		t.Errorf("a payload op holds %d per-rank buffers, want %d", len(data.bufs), ranks)
	}
}

// TestIbcastPerRankPayloadBuffers checks the buffer sharing for
// correctness: a 16-rank broadcast where every rank posts its own
// payload buffer, in shuffled order. A leaf posts a payload-free buffer
// first, so the op's shared descriptor is not the root's, and the first
// payload must fill it in for that leaf. One interior rank posts after
// its parent is ready, and the edge to its child is corrupted once and
// retransmitted under IntegrityRecover, which re-reads the parent's
// per-rank buffer. Every payload rank must end with the root's bytes.
// The same broadcast over payload-free buffers must leave the op with no
// per-rank buffer slice.
func TestIbcastPerRankPayloadBuffers(t *testing.T) {
	const n, root, elems = 16, 3, 8
	// Root-relative rank 6 (parent 4, child 7) posts last, and the leaf
	// 15 first.
	late, lateChild, leaf := (6+root)%n, (7+root)%n, (15+root)%n
	delay := make([]sim.Duration, n)
	for k, i := range rand.New(rand.NewSource(7)).Perm(n) {
		delay[i] = sim.Duration(k+1) * sim.Microsecond
	}
	delay[late], delay[leaf] = 50*sim.Millisecond, 0

	run := func(t *testing.T, payload bool) *World {
		w := newWorld(t, 4, 4, n)
		c := w.WorldComm()
		corrupted := 0
		w.Integrity = &Integrity{
			Mode:        IntegrityRecover,
			RetryBudget: 1,
			WireCorrupt: func(src, dst int) bool {
				if src == late && dst == lateChild && corrupted == 0 {
					corrupted++
					return true
				}
				return false
			},
		}
		got := make([]*gpu.Buffer, n)
		parentReady := false
		_, err := w.RunSteps(func(r *Rank) sim.Stepper {
			buf := gpu.NewBuffer(4 * elems)
			if payload && r.ID != leaf {
				buf = gpu.NewDataBuffer(elems)
				for j := range buf.Data {
					buf.Data[j] = -1
					if r.ID == root {
						buf.Data[j] = float32(10*j) + 0.5
					}
				}
			}
			return script(r,
				sleep(delay[r.ID]),
				do(func() {
					if r.ID == late {
						for _, op := range w.bcastOps {
							parentReady = op.ready(op.parent(late))
						}
					}
				}),
				bcast(c, root, buf, topology.ModeAuto),
				do(func() { got[r.ID] = buf }))
		})
		if err != nil {
			t.Fatal(err)
		}
		if !parentReady {
			t.Errorf("rank %d posted before its parent was ready", late)
		}
		if integ := w.Integrity; integ.Detected != 1 || integ.Retransmits != 1 || integ.Escalations != 0 {
			t.Errorf("integrity counters = detected %d retransmits %d escalations %d; want 1/1/0",
				integ.Detected, integ.Retransmits, integ.Escalations)
		}
		if payload {
			for i, buf := range got {
				for j, v := range buf.Data {
					if want := float32(10*j) + 0.5; v != want {
						t.Errorf("rank %d element %d = %v, want the root's %v", i, j, v, want)
						break
					}
				}
			}
		}
		if len(w.bcastOps) != 0 || len(w.bcastPool) != 1 {
			t.Fatalf("%d ops live and %d pooled after the broadcast; want 0 and 1", len(w.bcastOps), len(w.bcastPool))
		}
		return w
	}

	t.Run("payload", func(t *testing.T) {
		w := run(t, true)
		if op := w.bcastPool[0]; len(op.bufs) != n {
			t.Errorf("a payload broadcast's op holds %d per-rank buffers, want %d", len(op.bufs), n)
		}
	})
	t.Run("payload-free", func(t *testing.T) {
		w := run(t, false)
		if op := w.bcastPool[0]; op.bufs != nil {
			t.Errorf("a payload-free broadcast's op made a per-rank buffer slice of %d", len(op.bufs))
		}
	})
}
