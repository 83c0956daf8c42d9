package core

import (
	"fmt"
	"math"

	"scaffe/internal/mpi"
)

// This file is the engine's side of the integrity plane: the MPI layer
// checksums every collective receive and broadcast edge (detecting and
// retransmitting wire corruption), while the root's numeric-health
// watchdog catches what checksums cannot — corruption already resident
// in memory, surfacing as non-finite losses, exploding gradient norms,
// or divergence from the run's EWMA. A watchdog trip in recover mode
// triggers a micro-rollback: the communicator is revoked with zero
// failed ranks, every rank rendezvouses exactly as for a crash, and
// the root restores parameters and momentum from an in-memory
// last-good copy — no snapshot round-trip — before the tripped
// iteration replays.

// IntegrityMode selects the integrity plane's behavior.
type IntegrityMode int

const (
	// IntegrityOff runs the exact seed code paths.
	IntegrityOff IntegrityMode = iota
	// IntegrityDetect verifies and counts, but never alters the run:
	// corrupted chunks flow on and poisoned updates apply. The
	// observe-only mode behind scaffe-train's exit code 4.
	IntegrityDetect
	// IntegrityRecover retransmits corrupted chunks and micro-rolls-
	// back watchdog trips, quarantining a batch that keeps failing.
	IntegrityRecover
)

func (m IntegrityMode) String() string {
	switch m {
	case IntegrityOff:
		return "off"
	case IntegrityDetect:
		return "detect"
	case IntegrityRecover:
		return "recover"
	}
	return fmt.Sprintf("IntegrityMode(%d)", int(m))
}

// ParseIntegrityMode parses the CLI spelling of a mode.
func ParseIntegrityMode(s string) (IntegrityMode, error) {
	switch s {
	case "off", "":
		return IntegrityOff, nil
	case "detect":
		return IntegrityDetect, nil
	case "recover":
		return IntegrityRecover, nil
	}
	return IntegrityOff, fmt.Errorf("%w: unknown integrity mode %q (want off, detect, or recover)", ErrConfig, s)
}

// mpiMode maps the config enum onto the MPI layer's.
func (m IntegrityMode) mpiMode() mpi.IntegrityMode {
	switch m {
	case IntegrityDetect:
		return mpi.IntegrityDetect
	case IntegrityRecover:
		return mpi.IntegrityRecover
	}
	return mpi.IntegrityOff
}

// IntegrityReport summarizes the integrity plane's run for Result.
type IntegrityReport struct {
	// Mode is the armed mode.
	Mode IntegrityMode
	// Verified counts checksummed receives that matched (including
	// after a successful retransmit).
	Verified int
	// Detected counts checksum mismatches observed on the wire.
	Detected int
	// Retransmitted counts chunk retransmissions booked.
	Retransmitted int
	// Escalations counts chunks that stayed corrupted past the retry
	// budget and revoked the communicator.
	Escalations int
	// WatchdogTrips counts numeric-health failures at the root's
	// update gate (NaN/Inf loss or gradient norm, EWMA divergence,
	// non-finite or runaway parameters).
	WatchdogTrips int
	// Rollbacks counts micro-rollbacks (iteration retries from the
	// in-memory last-good copy).
	Rollbacks int
	// QuarantinedBatches counts batches condemned after exhausting
	// their retries; their updates are skipped.
	QuarantinedBatches int
}

func (r *IntegrityReport) String() string {
	return fmt.Sprintf("mode=%s verified=%d detected=%d retransmitted=%d escalations=%d watchdog-trips=%d rollbacks=%d quarantined=%d",
		r.Mode, r.Verified, r.Detected, r.Retransmitted, r.Escalations, r.WatchdogTrips, r.Rollbacks, r.QuarantinedBatches)
}

// paramLimit is the watchdog's runaway-parameter threshold. Healthy
// training never carries weights anywhere near it, while a flipped
// exponent bit lands orders of magnitude beyond — catching, before
// the update bakes it into the last-good copy, corruption that struck
// after the gradients were read.
const paramLimit = 1e30

// initLastGood allocates and seeds the root's in-memory rollback
// state. Call after solver construction (and any resume), so the copy
// reflects the true starting point.
func (st *runState) initLastGood() {
	root := st.rootRank()
	w := st.wl[root]
	st.lastGoodParams = make([]float32, len(w.packedParams.Data))
	w.net.PackParams(st.lastGoodParams)
	st.lastGoodHistory = st.sgds[root].PackHistory(w.net, nil)
	st.integTries = make(map[int]int)
	st.quarantined = make(map[int]bool)
}

// integrityCheck is the root's per-iteration health gate, run after
// the reduced gradients are unpacked and before the solver steps: it
// reports whether the update may apply. The trip path (recover mode)
// revokes the communicator and unwinds with Revoked, so the params are
// never stepped with poisoned gradients — micro-rollback only ever has
// to heal the parameter copy itself.
// divergeFactor is the watchdog's divergence trip ratio: a loss (or
// squared gradient norm) more than this factor above its running EWMA
// is treated as corruption — far above any healthy excursion.
const divergeFactor = 1e6

func (st *runState) integrityCheck(w *workload, it int) bool {
	if st.integ == nil || !w.real() {
		return true
	}
	if st.quarantined[it] {
		return false // condemned batch: skip the update, keep the params
	}
	loss := float64(w.loss())
	var norm2 float64
	for _, g := range w.packedGrads.Data {
		norm2 += float64(float64(g) * float64(g))
	}
	healthy := !math.IsNaN(loss) && !math.IsInf(loss, 0) &&
		!math.IsNaN(norm2) && !math.IsInf(norm2, 0) &&
		st.paramsHealthy(w)
	if healthy && st.lossEWMA > 0 && loss > st.lossEWMA*divergeFactor {
		healthy = false
	}
	if healthy && st.normEWMA > 0 && norm2 > st.normEWMA*divergeFactor {
		healthy = false
	}
	if healthy {
		// Fold only committed-healthy values, so a rolled-back
		// iteration leaves the divergence baseline untouched.
		const a = 0.25
		if st.lossEWMA == 0 {
			st.lossEWMA = loss
		} else {
			st.lossEWMA += float64(a * (loss - st.lossEWMA))
		}
		if st.normEWMA == 0 {
			st.normEWMA = norm2
		} else {
			st.normEWMA += float64(a * (norm2 - st.normEWMA))
		}
		return true
	}
	st.integ.WatchdogTrips++
	if st.cfg.Integrity == IntegrityDetect {
		return true // observe only: the poisoned update applies
	}
	retries := st.cfg.IntegrityRetries
	if retries < 0 {
		retries = 0
	}
	st.integTries[it]++
	if st.integTries[it] > retries {
		st.quarantined[it] = true
		st.integ.QuarantinedBatches++
	}
	st.integRetry = true
	st.integIter = it
	st.integTripAt = st.k.Now()
	st.ft.Revoke()
	panic(mpi.Revoked{})
}

// paramsHealthy scans the root net's resident parameters for
// non-finite or runaway values — the signature of in-memory
// corruption that struck after this iteration's gradients were
// computed.
func (st *runState) paramsHealthy(w *workload) bool {
	for _, l := range w.net.Layers {
		for _, p := range l.Params() {
			for _, v := range p.Data {
				a := float64(v)
				if math.IsNaN(a) || math.IsInf(a, 0) || a > paramLimit || a < -paramLimit {
					return false
				}
			}
		}
	}
	return true
}

// noteLastGood commits the post-update state as the rollback point.
// Root only, after a health-checked Step.
func (st *runState) noteLastGood(w *workload) {
	if st.lastGoodParams == nil {
		return
	}
	w.net.PackParams(st.lastGoodParams)
	st.lastGoodHistory = st.sgds[st.rootRank()].PackHistory(w.net, st.lastGoodHistory)
}

// rebuildMicro is the micro-rollback flavor of the recovery hook, on
// the communicator rebuild already re-formed over the same members
// (stale traffic from the abandoned iteration can never match the
// replay's): root parameters and momentum restored from the in-memory
// last-good copy — no snapshot read, no re-sharding, no reader restart
// (the elastic readers keep streaming; batch tokens are fungible).
// Replicas heal through the retried iteration's parameter broadcast.
func (st *runState) rebuildMicro(members []int) int {
	restart := st.integIter
	if st.cfg.RealNet != nil && st.lastGoodParams != nil {
		root := st.rootRank()
		w := st.wl[root]
		w.net.UnpackParams(st.lastGoodParams)
		st.sgds[root].Reset()
		st.sgds[root].LoadHistory(w.net, st.lastGoodHistory)
		// The tripped iteration never recorded its loss (the panic
		// fires before post-update), so this is a defensive no-op
		// unless an escalation unwound mid-record.
		st.unrecord(restart)
	}
	st.integ.Rollbacks++
	for _, id := range members {
		st.cfg.Trace.Add(id, "rollback", st.integTripAt, st.k.Now())
	}
	st.restartIter = restart
	return restart
}
