package mpi

import (
	"testing"

	"scaffe/internal/gpu"
	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

func TestGrowCommMembership(t *testing.T) {
	w := newWorld(t, 2, 2, 4)
	shrunk := w.EpochComm([]int{0, 1, 3})
	if shrunk.Size() != 3 || shrunk.GroupRank(2) != -1 {
		t.Fatalf("shrunk comm: size %d, rank2 group %d", shrunk.Size(), shrunk.GroupRank(2))
	}
	grown := w.EpochComm([]int{0, 1, 2, 3})
	if grown.Size() != 4 {
		t.Fatalf("grown comm size = %d, want 4", grown.Size())
	}
	for i := 0; i < 4; i++ {
		if grown.WorldRank(i) != i || grown.GroupRank(i) != i {
			t.Errorf("grown comm rank %d maps to world %d / group %d", i, grown.WorldRank(i), grown.GroupRank(i))
		}
	}
	// The member list is copied, not aliased.
	members := []int{0, 2}
	g2 := w.EpochComm(members)
	members[0] = 99
	if g2.WorldRank(0) != 0 || g2.WorldRank(1) != 2 {
		t.Errorf("grow comm aliased its input: world ranks %d, %d", g2.WorldRank(0), g2.WorldRank(1))
	}
}

// TestRespawnRankFreshLife kills a rank mid-run and respawns it with a
// new main: the second life must run and be reachable through a
// communicator built for the grown membership.
func TestRespawnRankFreshLife(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	k := w.K
	grown := w.EpochComm([]int{0, 1})
	var got float32
	var secondLife bool
	k.At(5, func() { w.Ranks[1].KillAll() })
	k.At(10, func() {
		w.RespawnRank(1, func(r *Rank) sim.Stepper {
			var req *Request
			var wt Waiter
			return stepFunc(func(*sim.Proc) bool {
				if req == nil {
					secondLife = true
					req = r.Isend(grown, 0, 9, gpu.WrapData([]float32{7}), topology.ModeAuto)
				}
				return r.PollRequest(&wt, req)
			})
		})
	})
	if _, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			buf := gpu.NewDataBuffer(1)
			return script(r, recv(grown, 1, 9, buf), do(func() { got = buf.Data[0] }))
		}
		// First life: killed mid-sleep, long before it would wake.
		return script(r, sleep(sim.Second), do(func() { t.Error("first life survived its kill") }))
	}); err != nil {
		t.Fatal(err)
	}
	if !secondLife {
		t.Fatal("respawned main never ran")
	}
	if got != 7 {
		t.Errorf("rank 0 received %v from the respawned rank, want 7", got)
	}
	if w.Ranks[1].lives != 1 {
		t.Errorf("lives = %d, want 1", w.Ranks[1].lives)
	}
}

// TestJoinAckHandshake pins the join handshake pair core's catch-up
// posts: the joiner's Isend to group rank 0 must match the root's Irecv
// from the joiner, and both requests reach Wait.
func TestJoinAckHandshake(t *testing.T) {
	w := newWorld(t, 2, 1, 2)
	c := w.WorldComm()
	var rootSaw float32
	_, err := w.RunSteps(func(r *Rank) sim.Stepper {
		if r.ID == 0 {
			buf := gpu.NewDataBuffer(1)
			return script(r, recv(c, 1, 42, buf), do(func() { rootSaw = buf.Data[0] }))
		}
		return script(r, send(c, 0, 42, gpu.WrapData([]float32{3}), topology.ModeAuto))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rootSaw != 3 {
		t.Errorf("root received %v, want 3", rootSaw)
	}
}
