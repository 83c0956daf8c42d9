package topology

import (
	"testing"

	"scaffe/internal/sim"
)

func TestClusterPresets(t *testing.T) {
	k := sim.New()
	// Cluster-A: 12 CS-Storm nodes of 16 K-80 devices.
	a := New(k, "Cluster-A", 12, 16, DefaultParams())
	if len(a.Nodes) != 12 || a.GPUsPerNode() != 16 || a.TotalGPUs() != 192 {
		t.Errorf("Cluster-A dims = %d nodes x %d GPUs (%d total), want 12x16=192",
			len(a.Nodes), a.GPUsPerNode(), a.TotalGPUs())
	}
	// Cluster-B: 20 nodes of one K-80 card (2 devices).
	b := New(k, "Cluster-B", 20, 2, DefaultParams())
	if len(b.Nodes) != 20 || b.GPUsPerNode() != 2 || b.TotalGPUs() != 40 {
		t.Errorf("Cluster-B dims = %d nodes x %d GPUs (%d total), want 20x2=40",
			len(b.Nodes), b.GPUsPerNode(), b.TotalGPUs())
	}
}

// TestNewRejectsEmptyDimensions: a cluster with no nodes, or nodes with
// no GPUs, is a caller's bug, and New says so instead of building it.
func TestNewRejectsEmptyDimensions(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d nodes, %d GPUs per node) did not panic", dims[0], dims[1])
				}
			}()
			New(sim.New(), "t", dims[0], dims[1], DefaultParams())
		}()
	}
}

// TestLinkBusyTotalSumsBothDirections: utilization reports read a link's
// busy time as its inbound plus its outbound reservations.
func TestLinkBusyTotalSumsBothDirections(t *testing.T) {
	var l Link
	l.In.Reserve(0, 300)
	l.Out.Reserve(0, 200)
	l.Out.Reserve(0, 50)
	if got := l.BusyTotal(); got != 550 {
		t.Errorf("BusyTotal = %v, want 550 (300 in + 250 out)", got)
	}
}

func TestDeviceForRankBlockPlacement(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 3, 4, DefaultParams())
	cases := []struct {
		rank        int
		node, local int
	}{
		{0, 0, 0}, {3, 0, 3}, {4, 1, 0}, {11, 2, 3},
	}
	for _, cse := range cases {
		d := c.DeviceForRank(cse.rank)
		if d.Node != cse.node || d.Local != cse.local {
			t.Errorf("DeviceForRank(%d) = %v, want n%dg%d", cse.rank, d, cse.node, cse.local)
		}
	}
}

func TestDeviceForRankOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range rank")
		}
	}()
	k := sim.New()
	New(k, "t", 1, 2, DefaultParams()).DeviceForRank(2)
}

func TestTransferScalesWithSize(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 2, 2, DefaultParams())
	a, b := DeviceID{0, 0}, DeviceID{1, 0}
	_, small := c.Transfer(0, a, b, 1<<20, ModePipelined)
	k2 := sim.New()
	c2 := New(k2, "t", 2, 2, DefaultParams())
	_, large := c2.Transfer(0, a, b, 64<<20, ModePipelined)
	if large <= small {
		t.Errorf("64MB transfer (%v) should take longer than 1MB (%v)", large, small)
	}
	// Bandwidth term should dominate: 64x the size should be close to
	// 64x the time for large transfers.
	ratio := float64(large) / float64(small)
	if ratio < 20 || ratio > 70 {
		t.Errorf("64x size gave %.1fx time; expected roughly bandwidth-bound scaling", ratio)
	}
}

func TestIntraNodeFasterThanInterNodeStaged(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 2, 2, DefaultParams())
	_, ipc := c.Transfer(0, DeviceID{0, 0}, DeviceID{0, 1}, 8<<20, ModeIPC)
	k2 := sim.New()
	c2 := New(k2, "t", 2, 2, DefaultParams())
	_, staged := c2.Transfer(0, DeviceID{0, 0}, DeviceID{1, 0}, 8<<20, ModeStaged)
	if ipc >= staged {
		t.Errorf("IPC (%v) should beat cross-node staged (%v)", ipc, staged)
	}
}

func TestGDRBeatsPipelinedForSmall(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 2, 1, DefaultParams())
	a, b := DeviceID{0, 0}, DeviceID{1, 0}
	_, gdr := c.Transfer(0, a, b, 4<<10, ModeGDR)
	k2 := sim.New()
	c2 := New(k2, "t", 2, 1, DefaultParams())
	_, pipe := c2.Transfer(0, a, b, 4<<10, ModePipelined)
	if gdr >= pipe {
		t.Errorf("4KB: GDR (%v) should beat pipelined (%v)", gdr, pipe)
	}
}

func TestPipelinedBeatsGDRForLarge(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 2, 1, DefaultParams())
	a, b := DeviceID{0, 0}, DeviceID{1, 0}
	_, gdr := c.Transfer(0, a, b, 64<<20, ModeGDR)
	k2 := sim.New()
	c2 := New(k2, "t", 2, 1, DefaultParams())
	_, pipe := c2.Transfer(0, a, b, 64<<20, ModePipelined)
	if pipe >= gdr {
		t.Errorf("64MB: pipelined (%v) should beat GDR (%v) on Kepler-era GDR-read bandwidth", pipe, gdr)
	}
}

func TestAutoModeSelection(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 2, 2, DefaultParams())
	if m := c.resolveAuto(DeviceID{0, 0}, DeviceID{0, 1}, 1<<20); m != ModeIPC {
		t.Errorf("intra-node auto = %v, want ipc", m)
	}
	if m := c.resolveAuto(DeviceID{0, 0}, DeviceID{1, 0}, 4<<10); m != ModeGDR {
		t.Errorf("small cross-node auto = %v, want gdr", m)
	}
	if m := c.resolveAuto(DeviceID{0, 0}, DeviceID{1, 0}, 4<<20); m != ModePipelined {
		t.Errorf("large cross-node auto = %v, want pipelined", m)
	}
	if m := c.resolveAuto(HostOf(0), HostOf(1), 1<<20); m != ModeHost {
		t.Errorf("host-host auto = %v, want host", m)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 2, 2, DefaultParams())
	src := DeviceID{0, 0}
	// Two back-to-back transfers out of the same GPU must serialize on
	// its PCIe link.
	_, e1 := c.Transfer(0, src, DeviceID{1, 0}, 8<<20, ModePipelined)
	s2, _ := c.Transfer(0, src, DeviceID{1, 1}, 8<<20, ModePipelined)
	if s2 < e1 {
		t.Errorf("second transfer started at %v, before first ended at %v", s2, e1)
	}
}

func TestDisjointTransfersRunConcurrently(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 4, 1, DefaultParams())
	_, e1 := c.Transfer(0, DeviceID{0, 0}, DeviceID{1, 0}, 8<<20, ModePipelined)
	s2, _ := c.Transfer(0, DeviceID{2, 0}, DeviceID{3, 0}, 8<<20, ModePipelined)
	if s2 >= e1 {
		t.Errorf("disjoint transfer delayed: started %v, other ended %v", s2, e1)
	}
}

func TestZeroByteTransferPaysLatencyOnly(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 2, 1, DefaultParams())
	_, end := c.Transfer(0, DeviceID{0, 0}, DeviceID{1, 0}, 0, ModeStaged)
	if end <= 0 {
		t.Error("zero-byte transfer should still pay latency")
	}
	if end > 100*sim.Microsecond {
		t.Errorf("zero-byte transfer took %v; should be latency only", end)
	}
}

func TestSameDeviceCopy(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 1, 1, DefaultParams())
	d := DeviceID{0, 0}
	s, e := c.Transfer(0, d, d, 1<<20, ModeAuto)
	if e <= s {
		t.Error("same-device copy should take positive time")
	}
}

func TestReduceTimeGPUFasterThanCPU(t *testing.T) {
	k := sim.New()
	c := New(k, "t", 1, 1, DefaultParams())
	g := c.ReduceTime(64<<20, true)
	h := c.ReduceTime(64<<20, false)
	if g >= h {
		t.Errorf("GPU reduce (%v) should beat CPU reduce (%v) at 64MB", g, h)
	}
}

func TestHostEndpoints(t *testing.T) {
	if !HostOf(3).IsHost() {
		t.Error("HostOf should be a host endpoint")
	}
	if (DeviceID{0, 0}).IsHost() {
		t.Error("GPU 0 should not be a host endpoint")
	}
	k := sim.New()
	c := New(k, "t", 2, 1, DefaultParams())
	// Host-to-host wire transfer must not touch PCIe links.
	c.Transfer(0, HostOf(0), HostOf(1), 8<<20, ModeHost)
	if c.Nodes[0].PCIe[0].BusyTotal() != 0 {
		t.Error("host-host transfer reserved a PCIe link")
	}
	if c.Nodes[0].HCA.BusyTotal() == 0 {
		t.Error("host-host transfer did not reserve the HCA")
	}
}

func TestDeviceIDString(t *testing.T) {
	if s := (DeviceID{2, 5}).String(); s != "n2g5" {
		t.Errorf("DeviceID string = %q, want n2g5", s)
	}
}

func TestTransferModeString(t *testing.T) {
	modes := map[TransferMode]string{
		ModeAuto: "auto", ModeGDR: "gdr", ModePipelined: "pipelined",
		ModeStaged: "staged", ModeIPC: "ipc", ModeHost: "host",
		TransferMode(99): "unknown",
	}
	for m, want := range modes {
		if got := m.String(); got != want {
			t.Errorf("mode %d = %q, want %q", int(m), got, want)
		}
	}
}

// TestNewAllocsIndependentOfSize: a cluster's nodes and links are carved
// from blocks, so building one costs the same few allocations at 8 GPUs
// as at 1,024: the cluster, its node block, the node pointers and the
// PCIe link block.
func TestNewAllocsIndependentOfSize(t *testing.T) {
	const budget = 4
	k := sim.New()
	small := testing.AllocsPerRun(20, func() { New(k, "t", 2, 4, DefaultParams()) })
	large := testing.AllocsPerRun(20, func() { New(k, "t", 64, 16, DefaultParams()) })
	if small != large || large > budget {
		t.Errorf("New made %.0f allocations for 2x4 and %.0f for 64x16; want the same, at most %d", small, large, budget)
	}
}
