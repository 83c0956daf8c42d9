// Package gpu models a CUDA device at the fidelity the S-Caffe
// co-designs require: a compute stream and a communication/reduction
// stream that run concurrently, a kernel cost model driven by FLOP
// counts, and device buffers that optionally carry real float32
// payloads so reductions can be verified numerically.
package gpu

import (
	"fmt"

	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

// Device is one simulated CUDA device.
type Device struct {
	K  *sim.Kernel
	ID topology.DeviceID
	// Compute serializes training kernels (forward/backward layers).
	Compute sim.Resource
	// Comm serializes reduction/pack kernels; it runs concurrently
	// with Compute, as two CUDA streams would.
	Comm sim.Resource

	p        topology.Params
	slowdown float64 // >1 stretches every kernel (straggler modeling)
}

// NewDevice creates a device of cluster c for topology slot id.
func NewDevice(c *topology.Cluster, id topology.DeviceID) *Device {
	return &Device{K: c.K, ID: id, p: c.P}
}

// NewDevices creates the devices of cluster c's first n slots in block
// placement order (Cluster.DeviceForRank), carved from one block.
func NewDevices(c *topology.Cluster, n int) []Device {
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = *NewDevice(c, c.DeviceForRank(i))
	}
	return devs
}

// SetSlowdown stretches every kernel on this device by factor ≥ 1,
// modeling a persistent straggler (thermal throttling, a shared K-80
// sibling, OS noise). Factor 1 restores nominal speed.
func (d *Device) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	d.slowdown = factor
}

func (d *Device) scale(t sim.Duration) sim.Duration {
	if d.slowdown > 1 {
		return sim.Duration(float64(t) * d.slowdown)
	}
	return t
}

// ErrOutOfMemory reports a solver whose device footprint does not fit.
// It reproduces the "solver ran out of memory" missing data points of
// Figure 8.
type ErrOutOfMemory struct {
	Dev       topology.DeviceID
	Requested int64
	Free      int64
}

func (e *ErrOutOfMemory) Error() string {
	return fmt.Sprintf("gpu %v: out of memory: requested %d bytes, %d free", e.Dev, e.Requested, e.Free)
}

// KernelTime converts a FLOP count into a kernel duration using the
// device's sustained throughput plus launch latency.
func (d *Device) KernelTime(flops float64) sim.Duration {
	if flops <= 0 {
		return d.p.KernelLaunch
	}
	return d.p.KernelLaunch + sim.Duration(flops/(d.p.GPUGflops*1e9)*float64(sim.Second))
}

// LaunchCompute enqueues a kernel of the given FLOP cost on the
// compute stream no earlier than `at`, returning its span.
func (d *Device) LaunchCompute(at sim.Time, flops float64) (start, end sim.Time) {
	return d.Compute.Reserve(at, d.scale(d.KernelTime(flops)))
}

// LaunchReduce enqueues a reduction kernel combining `bytes` of one
// operand on the comm stream, returning its span.
func (d *Device) LaunchReduce(at sim.Time, bytes int64) (start, end sim.Time) {
	dur := d.p.KernelLaunch + sim.Duration(float64(bytes)/d.p.GPUReduceBW*float64(sim.Second))
	return d.Comm.Reserve(at, d.scale(dur))
}
