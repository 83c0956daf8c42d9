package topology

import "scaffe/internal/sim"

// HostOf returns the pseudo-device identifying node n's host memory.
// Host endpoints skip the PCIe link on their side of a transfer.
func HostOf(n int) DeviceID { return DeviceID{Node: n, Local: -1} }

// IsHost reports whether d is a host-memory endpoint.
func (d DeviceID) IsHost() bool { return d.Local < 0 }

// eagerGDRLimit is the message size up to which ModeAuto prefers the
// low-latency GDR path over pipelined host staging on the Kepler-era
// hardware model (the GDR-read bandwidth cliff makes GDR lose for
// large messages).
const eagerGDRLimit = 32 << 10

// resolveAuto picks the concrete mode MVAPICH2-GDR-style runtimes use.
func (c *Cluster) resolveAuto(from, to DeviceID, bytes int64) TransferMode {
	if from.IsHost() && to.IsHost() {
		return ModeHost
	}
	if from.Node == to.Node {
		return ModeIPC
	}
	if bytes <= eagerGDRLimit {
		return ModeGDR
	}
	return ModePipelined
}

func bwTime(bytes int64, bw float64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(float64(bytes) / bw * float64(sim.Second))
}

// reserveAll books duration d on every resource no earlier than `at`,
// starting when all of them are free (a cut-through transfer holding
// its whole path).
func reserveAll(at sim.Time, d sim.Duration, links ...*sim.Resource) (start, end sim.Time) {
	start = at
	for _, l := range links {
		start = maxTime(start, l.FreeAt(at))
	}
	for _, l := range links {
		l.Reserve(start, d)
	}
	return start, start + d
}

// Transfer books a transfer of `bytes` from device `from` to device
// `to` starting no earlier than `at`, reserving the shared links it
// crosses, and returns the span it occupies. Zero-byte transfers still
// pay software overhead and latency.
func (c *Cluster) Transfer(at sim.Time, from, to DeviceID, bytes int64, mode TransferMode) (start, end sim.Time) {
	p := &c.P
	if mode == ModeAuto {
		mode = c.resolveAuto(from, to, bytes)
	}
	if mode == ModeHost {
		// ModeHost means the buffers are host-resident regardless of
		// which GPU the rank owns (a non-CUDA-aware application has
		// already staged them): the transfer never touches PCIe.
		from, to = HostOf(from.Node), HostOf(to.Node)
	}
	at += p.SWOverhead

	// Same-device "transfer": a device-local copy.
	if from == to {
		if from.IsHost() {
			return at, at + bwTime(bytes, p.HostMemBW)
		}
		return at, at + bwTime(bytes, p.GPUReduceBW) // device memcpy ~ mem bandwidth
	}

	if from.Node == to.Node {
		return c.intraNode(at, from, to, bytes, mode)
	}
	return c.interNode(at, from, to, bytes, mode)
}

// intraNode books a transfer between two endpoints of one host.
func (c *Cluster) intraNode(at sim.Time, from, to DeviceID, bytes int64, mode TransferMode) (start, end sim.Time) {
	p := &c.P
	node := c.Nodes[from.Node]
	switch {
	case from.IsHost() && to.IsHost():
		return at, at + bwTime(bytes, p.HostMemBW)
	case from.IsHost():
		return reserveAll(at, p.PCIeLat+bwTime(bytes, p.PCIeBW), &node.PCIe[to.Local].In)
	case to.IsHost():
		return reserveAll(at, p.PCIeLat+bwTime(bytes, p.PCIeBW), &node.PCIe[from.Local].Out)
	}
	// GPU to GPU on one node.
	switch mode {
	case ModeIPC, ModeGDR, ModePipelined, ModeAuto:
		// Peer copy across the PCIe switch: source egress and
		// destination ingress busy for the copy.
		d := p.IPCLat + bwTime(bytes, min64f(p.IPCBW, p.PCIeBW))
		return reserveAll(at, d, &node.PCIe[from.Local].Out, &node.PCIe[to.Local].In)
	default: // ModeStaged
		// D2H then H2D, serialized through host memory.
		s1, e1 := reserveAll(at, p.PCIeLat+bwTime(bytes, p.PCIeBW), &node.PCIe[from.Local].Out)
		_, e2 := reserveAll(e1+bwTime(bytes, p.HostMemBW), p.PCIeLat+bwTime(bytes, p.PCIeBW), &node.PCIe[to.Local].In)
		return s1, e2
	}
}

// reserveWirePath books duration d on the HCA pair plus whichever PCIe
// endpoints the device-resident sides cross. The four explicit cases
// (instead of appending into a links slice) keep the variadic argument
// slices stack-allocated: Transfer prices every send, so building the
// path must not touch the heap.
func reserveWirePath(at sim.Time, d sim.Duration, src, dst *Node, from, to DeviceID) (start, end sim.Time) {
	switch {
	case !from.IsHost() && !to.IsHost():
		return reserveAll(at, d, &src.HCA.Out, &dst.HCA.In, &src.PCIe[from.Local].Out, &dst.PCIe[to.Local].In)
	case !from.IsHost():
		return reserveAll(at, d, &src.HCA.Out, &dst.HCA.In, &src.PCIe[from.Local].Out)
	case !to.IsHost():
		return reserveAll(at, d, &src.HCA.Out, &dst.HCA.In, &dst.PCIe[to.Local].In)
	default:
		return reserveAll(at, d, &src.HCA.Out, &dst.HCA.In)
	}
}

// interNode books a transfer between two endpoints on different hosts.
func (c *Cluster) interNode(at sim.Time, from, to DeviceID, bytes int64, mode TransferMode) (start, end sim.Time) {
	p := &c.P
	src, dst := c.Nodes[from.Node], c.Nodes[to.Node]
	netLat := p.IBLat

	switch mode {
	case ModeHost:
		d := c.scaleWire(at, from.Node, to.Node, netLat+bwTime(bytes, p.IBBW))
		return reserveAll(at, d, &src.HCA.Out, &dst.HCA.In)

	case ModeGDR:
		// Cut-through: GPU->HCA peer read, wire, HCA->GPU write. The
		// bottleneck is the Kepler GDR read bandwidth; latency is one
		// PCIe hop each side plus the wire, minus the GDR setup
		// saving.
		bw := min64f(p.GDRReadBW, p.IBBW)
		d := c.scaleWire(at, from.Node, to.Node, p.PCIeLat+netLat+p.PCIeLat-p.GDRLat+bwTime(bytes, bw))
		return reserveWirePath(at, d, src, dst, from, to)

	case ModePipelined, ModeAuto:
		// Chunked pipeline through host memory: after a two-chunk fill,
		// the transfer streams at the bottleneck bandwidth.
		bw := min64f(p.PCIeBW, min64f(p.IBBW, p.HostMemBW))
		fill := 2 * bwTime(p.PipelineChunk, bw)
		d := c.scaleWire(at, from.Node, to.Node, p.PCIeLat+netLat+p.PCIeLat+fill+bwTime(bytes, bw))
		return reserveWirePath(at, d, src, dst, from, to)

	default: // ModeStaged: serialized D2H, host copy, wire, H2D.
		t := at
		start = at
		if !from.IsHost() {
			s, e := reserveAll(t, p.PCIeLat+bwTime(bytes, p.PCIeBW), &src.PCIe[from.Local].Out)
			start, t = s, e
			t += bwTime(bytes, p.HostMemBW) // copy into the MPI bounce buffer
		}
		wd := c.scaleWire(at, from.Node, to.Node, netLat+bwTime(bytes, p.IBBW))
		ws, we := reserveAll(t, wd, &src.HCA.Out, &dst.HCA.In)
		if from.IsHost() {
			start = ws
		}
		t = we
		if !to.IsHost() {
			t += bwTime(bytes, p.HostMemBW) // copy out of the bounce buffer
			_, e := reserveAll(t, p.PCIeLat+bwTime(bytes, p.PCIeBW), &dst.PCIe[to.Local].In)
			t = e
		}
		return start, t
	}
}

// ReduceTime returns the duration of combining `bytes` of one operand
// into an accumulator, on the GPU or the host CPU.
func (c *Cluster) ReduceTime(bytes int64, onGPU bool) sim.Duration {
	if onGPU {
		return c.P.KernelLaunch + bwTime(bytes, c.P.GPUReduceBW)
	}
	return bwTime(bytes, c.P.CPUReduceBW)
}

func min64f(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxTime(ts ...sim.Time) sim.Time {
	m := ts[0]
	for _, t := range ts[1:] {
		if t > m {
			m = t
		}
	}
	return m
}
