package mpi

import (
	"math"

	"scaffe/internal/gpu"
	"scaffe/internal/topology"
)

// IntegrityMode selects what the runtime does with per-chunk
// checksums on receives.
type IntegrityMode int

const (
	// IntegrityOff disables checksum bookkeeping entirely; RecvSummed
	// degrades to a plain Recv with zero extra allocation.
	IntegrityOff IntegrityMode = iota
	// IntegrityDetect verifies every checksummed receive and counts
	// mismatches, but lets the corrupted payload flow on — the
	// observe-only mode behind scaffe-train's exit code 4.
	IntegrityDetect
	// IntegrityRecover retransmits a mismatched chunk up to
	// RetryBudget times, then escalates by revoking the communicator
	// (Revoked) so the fault plane's shrink/restore path takes over.
	IntegrityRecover
)

// Integrity is the world-level state of the checksum plane. WireCorrupt,
// when non-nil, is consulted once per checksummed delivery (including
// retransmits) and reports whether that transfer is corrupted — the
// deterministic injection hook wired to fault.Plane.WireCorrupt. The
// counters accumulate across the run and feed core's Result.Integrity.
type Integrity struct {
	Mode        IntegrityMode
	RetryBudget int
	WireCorrupt func(src, dst int) bool

	Verified    int // receives whose checksum matched (including after retransmit)
	Detected    int // checksum mismatches observed
	Retransmits int // chunk retransmissions booked
	Escalations int // mismatches that exhausted the budget and revoked
}

// integrityArmed reports whether checksummed receives do any work.
func (w *World) integrityArmed() bool {
	return w.Integrity != nil && w.Integrity.Mode != IntegrityOff
}

// Summed is the receive-side handle of one checksummed transfer: the
// delivered payload plus the checksum it carried on the wire. Verify
// settles it. A nil Summed (integrity off) is inert, so call sites
// need no mode branching.
type Summed struct {
	r        *Rank       // receiver
	buf      *gpu.Buffer // destination payload
	sum      uint64      // wire checksum of the delivered chunk
	src      *Rank       // sender, recorded at delivery for retransmits
	mode     topology.TransferMode
	poisoned bool      // timing-mode corruption marker (no payload to damage)
	clean    []float32 // pre-corruption payload snapshot for retransmits
}

// RecvSummed is a blocking receive that carries a per-chunk checksum.
// The returned handle must reach Verify on every path: Verify
// re-checksums the delivered payload against the wire sum and, in
// recover mode, retransmits the chunk on mismatch within the world's
// retry budget before escalating via Revoked. The handle is pooled:
// Verify settling it releases it, so it must not be used afterwards.
func (r *Rank) RecvSummed(c *Comm, from, tag int, buf *gpu.Buffer) *Summed {
	req, s := r.IrecvSummed(c, from, tag, buf)
	r.Wait(req)
	return s
}

// IrecvSummed posts RecvSummed's receive and returns its request with
// the checksum handle: the non-blocking form, for a sim.Stepper that
// polls the request itself. Once the request has completed the handle
// must reach Verify (or a TryVerify that reports true).
func (r *Rank) IrecvSummed(c *Comm, from, tag int, buf *gpu.Buffer) (*Request, *Summed) {
	var s *Summed
	if r.W.integrityArmed() {
		s = r.getSummed(buf)
	}
	return r.irecv(c, from, tag, buf, s), s
}

// getSummed draws a checksummed-chunk header from the rank's free
// list; the cold miss path allocates.
func (r *Rank) getSummed(buf *gpu.Buffer) *Summed {
	n := len(r.sumPool)
	if n == 0 {
		return newSummed(r, buf)
	}
	s := r.sumPool[n-1]
	r.sumPool[n-1] = nil
	r.sumPool = r.sumPool[:n-1]
	s.r, s.buf = r, buf
	return s
}

// newSummed is getSummed's pool-miss path.
func newSummed(r *Rank, buf *gpu.Buffer) *Summed { return &Summed{r: r, buf: buf} }

// release returns a settled header to its rank's free list, keeping
// the clean-snapshot capacity for the next corrupted delivery.
func (s *Summed) release() {
	r := s.r
	s.r, s.buf, s.src = nil, nil, nil
	s.sum, s.mode, s.poisoned = 0, 0, false
	s.clean = s.clean[:0]
	r.sumPool = append(r.sumPool, s)
}

// deliver runs in kernel context immediately after the payload copy:
// it seals the delivered bytes (the simulator's copy is instantaneous,
// so this equals the sender-side sum at send time) and applies any
// armed wire corruption on this link.
func (s *Summed) deliver(sender *Rank, mode topology.TransferMode) {
	if s == nil {
		return
	}
	s.src = sender
	s.mode = mode
	s.sum = s.buf.Checksum()
	integ := s.r.W.Integrity
	if integ.WireCorrupt != nil && integ.WireCorrupt(sender.ID, s.r.ID) {
		s.corrupt()
	}
}

// corrupt damages the delivered chunk in a detectable, reversible way:
// real payloads get bit 30 of word 0 flipped — the exponent's top bit,
// so in detect mode the damage is numerically visible rather than
// rounding away — after snapshotting the clean bytes so a retransmit
// can restore them; timing-mode payloads carry no values, so
// corruption is a poison marker.
func (s *Summed) corrupt() {
	if len(s.buf.Data) == 0 {
		s.poisoned = true
		return
	}
	if len(s.clean) == 0 && s.r.W.Integrity.Mode == IntegrityRecover {
		s.clean = append(s.clean[:0], s.buf.Data...)
	}
	s.buf.Data[0] = math.Float32frombits(math.Float32bits(s.buf.Data[0]) ^ 1<<30)
}

// TryVerify is the part of Verify that never blocks: it settles a
// receive whose checksum matches (and the inert nil handle) and reports
// true. It reports false, having counted nothing, on a mismatch, which
// only Verify can handle — a retransmit waits on the wire. A
// sim.Stepper calls TryVerify in its Step and falls back to Verify on
// the proc's goroutine.
func (s *Summed) TryVerify() bool {
	if s == nil {
		return true
	}
	if s.poisoned || (s.buf.Data != nil && s.buf.Checksum() != s.sum) {
		return false
	}
	s.r.W.Integrity.Verified++
	s.release()
	return true
}

// Verify settles the checksummed receive. On mismatch it counts a
// detection; detect mode stops there (the corrupted payload flows on),
// recover mode retransmits the chunk and re-verifies until it is clean
// or the retry budget is exhausted, at which point the communicator is
// revoked and the wait unwinds with Revoked for the fault plane's
// recovery rendezvous.
func (s *Summed) Verify() {
	for try := 0; !s.TryVerify(); try++ {
		w := s.r.W
		integ := w.Integrity
		integ.Detected++
		if integ.Mode == IntegrityDetect {
			s.release()
			return
		}
		if try >= integ.RetryBudget {
			integ.Escalations++
			w.Fault.Revoke()
			panic(Revoked{})
		}
		integ.Retransmits++
		s.retransmit()
	}
}

// retransmit books a fresh wire transfer of the chunk from its sender
// and blocks until it lands; the corruption hook is consulted again so
// a persistently bad link keeps failing toward escalation.
func (s *Summed) retransmit() {
	r := s.r
	w := r.W
	_, end := w.Cluster.Transfer(r.Now(), s.src.Dev.ID, r.Dev.ID, s.buf.Bytes, s.mode)
	done := w.K.GetCompletion()
	w.K.At(end, func() {
		if s.buf.Data != nil && len(s.clean) > 0 {
			copy(s.buf.Data, s.clean)
		}
		s.poisoned = false
		integ := w.Integrity
		if integ.WireCorrupt != nil && integ.WireCorrupt(s.src.ID, r.ID) {
			s.corrupt()
		}
		done.Fire()
	})
	r.wait(done)
	w.K.PutCompletion(done)
}
