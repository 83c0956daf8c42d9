package mpi

import (
	"math"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// IntegrityMode selects what the runtime does with per-chunk
// checksums on receives.
type IntegrityMode int

const (
	// IntegrityOff disables checksum bookkeeping entirely; IrecvSummed
	// degrades to a plain Irecv with zero extra allocation.
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
// delivered payload plus the checksum it carried on the wire. Settle
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

	// The retransmission in flight, if any: its landing, the wait for it,
	// and how many were booked.
	redo  *sim.Completion
	w     Waiter
	tries int
}

// IrecvSummed posts a receive that carries a per-chunk checksum and
// returns its request with the checksum handle. Once the request has
// completed the handle must reach Settle, which re-checksums the
// delivered payload against the wire sum and, in recover mode,
// retransmits the chunk on mismatch within the world's retry budget
// before escalating via Revoked.
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
	s.sum, s.mode, s.poisoned, s.tries = 0, 0, false, 0
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

// Settle settles the checksummed receive, for a sim.Stepper of the
// receiving rank's main proc: it reports true once the payload's
// checksum matches, or once a mismatch is counted in detect mode (the
// corrupted payload flows on), and the handle is released then. On a
// mismatch in recover mode it books a retransmission of the chunk from
// its sender and arms the proc to wait for it, as PollWait does, and
// reports false: the step must return, and call Settle again when
// resumed. A chunk still corrupted past the retry budget revokes the
// communicator and panics with Revoked, for the fault plane's recovery
// rendezvous.
func (s *Summed) Settle() bool {
	if s == nil {
		return true
	}
	r := s.r
	w := r.W
	for {
		if s.redo != nil {
			if !r.PollWait(r.Proc, &s.w, s.redo) {
				return false
			}
			w.K.PutCompletion(s.redo)
			s.redo = nil
		}
		if !s.poisoned && (s.buf.Data == nil || s.buf.Checksum() == s.sum) {
			w.Integrity.Verified++
			s.release()
			return true
		}
		integ := w.Integrity
		integ.Detected++
		if integ.Mode == IntegrityDetect {
			s.release()
			return true
		}
		if s.tries >= integ.RetryBudget {
			integ.Escalations++
			w.Fault.Revoke()
			panic(Revoked{})
		}
		s.tries++
		integ.Retransmits++
		s.retransmit()
	}
}

// retransmit books a fresh wire transfer of the chunk from its sender,
// landing in s.redo; the corruption hook is consulted again so a
// persistently bad link keeps failing toward escalation.
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
	s.redo, s.w = done, Waiter{}
}
