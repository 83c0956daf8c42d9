package mpi

import (
	"strings"
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// A bare world carries an idle fault plane whose deadlines never come.
// These pin the two behaviours that plane must keep from the days when a
// world without faults had no plane at all.

// TestIdlePlaneReportsDeadlock: a wait on the idle plane has no
// deadline, so a receive that nothing matches leaves the event queue
// empty and the kernel reports the deadlock instead of riding a
// deadline ladder forever.
func TestIdlePlaneReportsDeadlock(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			return script(r, recv(c, 1, 7, gpu.NewDataBuffer(1)))
		}
		return script(r)
	})
	if err == nil || !strings.Contains(err.Error(), "sim: deadlock") {
		t.Fatalf("unmatched receive: err = %v, want a sim: deadlock error", err)
	}
}

// TestIdlePlaneEscalationNeverCommitsDamage: in recover mode with no
// retry budget, a broadcast edge on a link that always corrupts
// escalates to the world's plane. The edge stays uncommitted, so no rank
// leaves the broadcast holding the damaged payload, and the run ends in
// an error.
func TestIdlePlaneEscalationNeverCommitsDamage(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	w.Integrity = &Integrity{
		Mode:        IntegrityRecover,
		RetryBudget: 0,
		WireCorrupt: func(src, dst int) bool { return true },
	}
	var left [2]bool
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		buf := gpu.NewDataBuffer(4)
		if r.ID == 0 {
			buf.Fill(1)
		}
		return script(r, bcast(c, 0, buf, topology.ModeAuto), do(func() { left[r.ID] = true }))
	})
	if err == nil {
		t.Fatal("a broadcast whose only edge exhausted its retry budget ran to completion")
	}
	if left != [2]bool{} {
		t.Errorf("ranks left the escalated broadcast: %v", left)
	}
	if integ := w.Integrity; integ.Detected != 1 || integ.Escalations != 1 || integ.Verified != 0 {
		t.Errorf("integrity counters = detected %d escalations %d verified %d; want 1/1/0",
			integ.Detected, integ.Escalations, integ.Verified)
	}
	if !w.Fault.Revoked() {
		t.Error("escalation did not revoke the world's plane")
	}
}
