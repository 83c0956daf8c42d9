package mpi

import (
	"strings"
	"testing"
	"unsafe"

	"scaffe/internal/fault"
	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// These are the mpi half of the pooled-object recycling drill (the sim
// half lives in sim/queue_test.go): requests and integrity headers are
// recycled through faults — wire corruption escalating to a revocation,
// and a rank killed mid-flight — and the generation counters must keep
// every reference from a previous life from completing a record's next
// one.

// recvSummed is a checksummed receive, settled: the receive's wait, then
// Settle's steps. A revocation panics out of the op.
func recvSummed(c *Comm, from, tag int, buf *gpu.Buffer) scriptOp {
	var req *Request
	var sum *Summed
	waited := false
	return func(s *rankScript) bool {
		if req == nil {
			req, sum = s.r.IrecvSummed(c, from, tag, buf)
		}
		if !waited {
			if !s.r.PollRequest(&s.w, req) {
				return false
			}
			waited = true
		}
		return sum.Settle()
	}
}

// TestRecyclingDrillCorruptionEscalation drives a checksummed receive
// into the escalation path: the retry budget is exhausted by a
// persistently corrupted link and Settle unwinds with Revoked. The
// request the receive used was released by Wait before Settle ran, so
// it is recycled; the Summed header was still in Settle's hands, so it
// is abandoned. The drill checks both lifecycles and the generation
// guard on the recycled request.
func TestRecyclingDrillCorruptionEscalation(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	corrupt := false
	w.Integrity = &Integrity{
		Mode:        IntegrityRecover,
		RetryBudget: 1,
		WireCorrupt: func(src, dst int) bool { return corrupt },
	}

	escaped := false
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 1 {
			return script(r,
				send(c, 0, 1, gpu.WrapData([]float32{1, 2, 3, 4}), topology.ModeAuto),
				send(c, 0, 2, gpu.WrapData([]float32{5, 6, 7, 8}), topology.ModeAuto))
		}
		buf := gpu.NewDataBuffer(4)
		var staleReq *Request
		var staleGen uint64
		var staleSum *Summed
		return script(r,
			// Clean round: fills the pools. The wait releases the request
			// before Settle settles (and releases) the header.
			recvSummed(c, 1, 1, buf),
			do(func() {
				if r.reqFree == nil || len(r.sumPool) == 0 {
					t.Fatalf("clean round left empty pools: request free list %p, %d summed", r.reqFree, len(r.sumPool))
				}
				staleReq = r.reqFree
				staleGen = staleReq.done.Gen()
				staleSum = r.sumPool[len(r.sumPool)-1]

				// Corrupted round: every delivery (including the
				// retransmit) is damaged, so Settle burns the budget and
				// revokes.
				corrupt = true
			}),
			revocable(recvSummed(c, 1, 2, buf), &escaped),
			do(func() {
				corrupt = false
				if !escaped {
					t.Fatalf("exhausted retry budget did not unwind with Revoked")
				}
				checkRecycled(t, r, buf, staleReq, staleGen, staleSum)
			}))
	})
	if err != nil {
		t.Fatal(err)
	}
	integ := w.Integrity
	if integ.Verified != 1 || integ.Detected != 2 || integ.Retransmits != 1 || integ.Escalations != 1 {
		t.Fatalf("integrity counters = verified %d detected %d retransmits %d escalations %d; want 1/2/1/1",
			integ.Verified, integ.Detected, integ.Retransmits, integ.Escalations)
	}
}

// checkRecycled checks the corruption drill's records after the
// escalation: the request recycled, the header abandoned, and the
// generation guard on the request's next life.
func checkRecycled(t *testing.T, r *Rank, buf *gpu.Buffer, staleReq *Request, staleGen uint64, staleSum *Summed) {
	// The request was recycled for the corrupted receive (a new
	// generation) and released again before the escalation.
	if staleReq.buf != nil {
		t.Errorf("request used by the escalated receive was not released back to the pool")
	}
	if staleReq.done.Gen() == staleGen {
		t.Errorf("recycling the request did not bump its completion generation")
	}

	// The abandoned Summed header must never return to the pool: the
	// next checksummed receive gets a fresh record, not the one the
	// escalation left mid-verify.
	for _, s := range r.sumPool {
		if s == staleSum {
			t.Errorf("escalated Summed header returned to the pool; it must be abandoned")
		}
	}

	// The generation guard on the recycled record: draw it again
	// (LIFO gives back the same record) and fire it through the
	// generation snapshotted two lives ago — the stale fire must
	// dissolve; the current generation must fire.
	req := r.getRequest(buf)
	if req != staleReq {
		t.Errorf("pool did not hand back the recycled request")
	}
	req.done.FireIf(staleGen)
	if req.done.Fired() {
		t.Errorf("FireIf with a generation from a previous life completed the recycled request")
	}
	req.done.FireIf(req.done.Gen())
	if !req.done.Fired() {
		t.Errorf("FireIf with the current generation did not fire")
	}
	r.putRequest(req)
}

// drillApplier is the minimal physical side of the fault plane for the
// kill drill: crashes fail-stop the rank's procs, stragglers are not
// modeled.
type drillApplier struct {
	fault.NopApplier
	w *World
}

func (a *drillApplier) KillRank(rank int, _ fault.Kind) { a.w.Ranks[rank].KillAll() }

// TestRecyclingDrillKillMidFlight kills a sender while the receiver is
// parked on the matching request. The fault-aware wait unwinds with
// Revoked before Wait can release the record, so the in-flight request
// must be abandoned — never recycled — and its pool must stay free of
// it.
func TestRecyclingDrillKillMidFlight(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	pl := fault.NewPlane(w.K, 2, sim.Millisecond)
	w.Fault = pl
	pl.Arm(fault.Schedule{{At: 3 * sim.Millisecond, Kind: fault.Crash, Rank: 1}}, &drillApplier{w: w})

	var inFlight *Request
	revoked := false
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 1 {
			// Never sends; dies mid-nap at 3ms.
			return script(r, sleep(sim.Second))
		}
		buf := gpu.NewDataBuffer(4)
		return script(r,
			do(func() { inFlight = r.Irecv(c, 1, 9, buf) }),
			revocable(await(&inFlight), &revoked),
			do(func() {
				if !revoked {
					t.Fatalf("wait on a dead sender did not unwind with Revoked")
				}
				// The unwound request is abandoned, not recycled: it never
				// reaches the free list, so no later operation can be handed a
				// record with a live posted-queue reference.
				if inFlight.buf == nil {
					t.Errorf("request abandoned by the revoked wait was returned to the pool")
				}
				for q := r.reqFree; q != nil; q = q.next {
					if q == inFlight {
						t.Errorf("abandoned in-flight request found in the free list")
					}
				}
			}))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Revoked() {
		t.Fatalf("plane not revoked after detecting the crash")
	}
	if rep := pl.Report(); rep.Crashes != 1 {
		t.Fatalf("report crashes = %d, want 1", rep.Crashes)
	}
}

// TestDeliverySize bounds the pooled landing record: every transfer in
// flight holds one, point-to-point and broadcast edge alike, so the
// broadcast edge's fields must not grow a point-to-point landing past
// two cache lines.
func TestDeliverySize(t *testing.T) {
	if size := unsafe.Sizeof(delivery{}); size > 128 {
		t.Errorf("a delivery is %d bytes, want at most 128", size)
	}
}

// TestRequestSize pins the request record and the unexpected-send
// record: SC-OB posts every layer's broadcast up front, so each GoogLeNet
// rank holds 64 requests at once, and a world carves both by the
// thousand.
func TestRequestSize(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size > 88 {
		t.Errorf("a Request is %d bytes, want at most 88", size)
	}
	if size := unsafe.Sizeof(pendingSend{}); size > 56 {
		t.Errorf("a pendingSend is %d bytes, want at most 56", size)
	}
}

// TestRequestBufferMarksRelease: a released request is one whose buffer
// is nil, so a request made without a buffer fails the run naming its
// rank, and a second release of the same request is absorbed rather
// than linking it into the free list twice.
func TestRequestBufferMarksRelease(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 1 {
			return script(r, do(func() { r.Irecv(c, 0, 1, nil) }))
		}
		return script(r)
	})
	if err == nil || !strings.Contains(err.Error(), "rank 1 made a request with a nil buffer") {
		t.Errorf("a request with a nil buffer: err = %v, want one naming rank 1", err)
	}

	w = newWorld(t, 2, 1, 2)
	c = w.WorldComm()
	_, err = w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewBuffer(4)
		if r.ID == 0 {
			return script(r, send(c, 1, 1, buf, topology.ModeAuto))
		}
		var req *Request
		return script(r,
			do(func() { req = r.Irecv(c, 0, 1, buf) }),
			await(&req),
			do(func() {
				r.putRequest(req)
				if r.LiveRequests() != 0 || r.reqFree != req || req.next != nil {
					t.Errorf("a second release: %d live, free list head %p next %p; want 0, the request, nil",
						r.LiveRequests(), r.reqFree, req.next)
				}
			}))
	})
	if err != nil {
		t.Fatal(err)
	}
}
