package mpi

import (
	"scaffe/internal/fault"
	"scaffe/internal/sim"
)

// This file is the mpi side of the lossy-wire fault family: the
// mechanics of dropping, duplicating, stashing (reorder), and holding
// (delay) payload landings whose fates the fault plane decides. The
// hook lives at the one landing site, delivery.RunEvent — every
// point-to-point transfer, which also carries reducer traffic,
// barriers, and join handshakes, and every broadcast tree edge — so
// every collective sees the same hostile fabric with no per-algorithm
// code.
//
// Everything here runs in kernel context behind the WireArmed gate:
// fault-free runs and runs with only rank-level faults never reach it.

// linkKey identifies one directed link by world rank.
type linkKey struct {
	src, dst int
}

// perturbDelivery decides and applies the wire fate of one landing,
// reporting whether the caller should land it now. Any stashed landing
// on the link is released first (behind the current one — that is the
// swap), so a stash can never starve even when its follow-up is itself
// dropped or held.
func (w *World) perturbDelivery(d *delivery, now sim.Time) bool {
	key := linkKey{src: d.sender.ID, dst: d.recv.ID}
	w.releaseHeld(key, now)
	verdict, hold := w.Fault.WireFate(key.src, key.dst, now)
	switch verdict {
	case fault.WireDrop:
		// A dropped broadcast edge never commits: the subtree below it
		// starves, its waiters ride the deadline ladder, and the plane's
		// loss-aware escalation revokes the communicator. The op record
		// stays in the match table until the recovery's epoch bump
		// clears it.
		w.putDelivery(d)
		return false
	case fault.WireHold:
		d.replay = true
		w.K.AtRun(now+hold, d)
		return false
	case fault.WireSwap:
		d.replay = true
		w.stashHeld(key, d, now)
		return false
	case fault.WireDup:
		g := w.getDelivery()
		*g = *d
		g.ghost = true
		w.K.AtRun(now, g) // lands after this event, before any waiter resumes
	}
	return true
}

// releaseHeld flushes the link's stashed landing, if any, back into
// the event stream at the current instant — scheduled after the event
// being processed, which completes the reorder swap.
func (w *World) releaseHeld(key linkKey, now sim.Time) {
	rec, ok := w.held[key]
	if !ok {
		return
	}
	delete(w.held, key)
	w.K.AtRun(now, rec)
}

// stashHeld parks one landing on its link and arms the failsafe: if no
// follow-up landing releases the stash within the plane's reorder
// failsafe window (the deadline ladder's plateau), it flushes itself,
// so a reordered link can never wedge a run. A link holds at most one
// stash — a second swap verdict on the same link releases the first.
func (w *World) stashHeld(key linkKey, rec *delivery, now sim.Time) {
	if w.held == nil {
		w.held = make(map[linkKey]*delivery)
	}
	if prev, ok := w.held[key]; ok {
		w.K.AtRun(now, prev)
	}
	w.held[key] = rec
	w.K.At(now+w.Fault.ReorderFailsafe(), func() {
		if w.held[key] == rec {
			delete(w.held, key)
			w.K.AtRun(w.K.Now(), rec)
		}
	})
}
