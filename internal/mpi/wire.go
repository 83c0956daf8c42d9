package mpi

import (
	"scaffe/internal/fault"
	"scaffe/internal/sim"
)

// This file is the mpi side of the lossy-wire fault family: the
// mechanics of dropping, duplicating, stashing (reorder), and holding
// (delay) payload landings whose fates the fault plane decides. The
// hooks live at the two landing sites — delivery.RunEvent (every
// point-to-point transfer, which also carries reducer traffic,
// barriers, and join handshakes) and bcastEdge.RunEvent (every
// broadcast tree edge) — so every collective sees the same hostile
// fabric with no per-algorithm code.
//
// Everything here runs in kernel context behind the WireArmed gate:
// fault-free runs and runs with only rank-level faults never reach it.

// linkKey identifies one directed link by world rank.
type linkKey struct {
	src, dst int
}

// heldRec is a stashed landing: a scheduled-record payload
// (delivery or bcastEdge) pulled out of the event stream by a reorder
// verdict, waiting for the next landing on its link to pass it.
type heldRec = sim.Runnable

// perturbDelivery decides and applies the wire fate of one
// point-to-point landing, reporting whether the caller should land it
// now. Any stashed landing on the link is released first (behind the
// current one — that is the swap), so a stash can never starve even
// when its follow-up is itself dropped or held.
func (w *World) perturbDelivery(d *delivery, now sim.Time) bool {
	key := linkKey{src: d.sender.ID, dst: d.recv.ID}
	w.releaseHeld(key, now)
	verdict, hold := w.Fault.WireFate(key.src, key.dst, now)
	switch verdict {
	case fault.WireDrop:
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

// perturbEdge is perturbDelivery for broadcast tree edges.
func (w *World) perturbEdge(e *bcastEdge, now sim.Time) bool {
	from, to := e.op.c.rankAt(e.parent), e.op.c.rankAt(e.child)
	key := linkKey{src: from.ID, dst: to.ID}
	w.releaseHeld(key, now)
	verdict, hold := w.Fault.WireFate(key.src, key.dst, now)
	switch verdict {
	case fault.WireDrop:
		// The edge never commits: the subtree below it starves, its
		// waiters ride the deadline ladder, and the plane's loss-aware
		// escalation revokes the communicator. The op record stays in
		// the match table until the recovery's epoch bump clears it.
		w.putBcastEdge(e)
		return false
	case fault.WireHold:
		e.replay = true
		w.K.AtRun(now+hold, e)
		return false
	case fault.WireSwap:
		e.replay = true
		w.stashHeld(key, e, now)
		return false
	case fault.WireDup:
		g := w.getBcastEdge()
		*g = *e
		g.ghost = true
		g.ghostKey = e.op.key
		w.K.AtRun(now, g)
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
func (w *World) stashHeld(key linkKey, rec heldRec, now sim.Time) {
	if w.held == nil {
		w.held = make(map[linkKey]heldRec)
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
