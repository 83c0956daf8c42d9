package gpu

import (
	"testing"
	"testing/quick"

	"scaffe/internal/sim"
	"scaffe/internal/topology"
)

func testDevice() (*sim.Kernel, *Device) {
	k := sim.New()
	c := topology.New(k, "t", 1, 1, topology.DefaultParams())
	return k, NewDevice(c, topology.DeviceID{Node: 0, Local: 0})
}

func TestKernelTimeMonotonic(t *testing.T) {
	_, d := testDevice()
	if d.KernelTime(0) <= 0 {
		t.Error("zero-FLOP kernel should still pay launch latency")
	}
	if d.KernelTime(1e9) <= d.KernelTime(1e6) {
		t.Error("more FLOPs should take longer")
	}
}

func TestComputeStreamSerializes(t *testing.T) {
	_, d := testDevice()
	_, e1 := d.LaunchCompute(0, 1e9)
	s2, _ := d.LaunchCompute(0, 1e9)
	if s2 != e1 {
		t.Errorf("second kernel started at %v, want back-to-back at %v", s2, e1)
	}
}

func TestCommStreamConcurrentWithCompute(t *testing.T) {
	_, d := testDevice()
	_, e1 := d.LaunchCompute(0, 1e9)
	s2, _ := d.LaunchReduce(0, 64<<20)
	if s2 >= e1 {
		t.Errorf("reduce kernel (start %v) should overlap compute (ends %v)", s2, e1)
	}
}

func TestBufferBasics(t *testing.T) {
	b := NewDataBuffer(8)
	if b.Bytes != 32 || b.Elems() != 8 {
		t.Errorf("buffer geometry: bytes=%d elems=%d", b.Bytes, b.Elems())
	}
	b.Fill(2)
	if b.Data[3] != 2 {
		t.Errorf("Fill result = %v, want 2", b.Data[3])
	}
}

func TestBufferSliceAliases(t *testing.T) {
	b := NewDataBuffer(10)
	v := b.Slice(2, 5)
	if v.Elems() != 3 {
		t.Fatalf("slice elems = %d, want 3", v.Elems())
	}
	v.Fill(7)
	if b.Data[2] != 7 || b.Data[4] != 7 || b.Data[5] != 0 {
		t.Errorf("slice should alias parent: %v", b.Data)
	}
}

func TestBufferSliceOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range slice")
		}
	}()
	NewDataBuffer(4).Slice(0, 5)
}

func TestBufferCopySizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on size mismatch")
		}
	}()
	NewDataBuffer(4).CopyFrom(NewDataBuffer(5))
}

func TestAccumulatePayloadFree(t *testing.T) {
	a := NewBuffer(64)
	b := NewBuffer(64)
	a.Accumulate(b) // must not panic without payloads
}

func TestWrapData(t *testing.T) {
	d := []float32{1, 2, 3}
	b := WrapData(d)
	if b.Bytes != 12 {
		t.Errorf("Bytes = %d, want 12", b.Bytes)
	}
	b.Data[0] = 9
	if d[0] != 9 {
		t.Error("WrapData must alias the slice")
	}
}

func TestAccumulateProperty(t *testing.T) {
	// Accumulate is element-wise addition.
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		x := WrapData(append([]float32(nil), a[:n]...))
		y := WrapData(append([]float32(nil), b[:n]...))
		x.Accumulate(y)
		for i := 0; i < n; i++ {
			if x.Data[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetSlowdown(t *testing.T) {
	_, d := testDevice()
	s, e := d.LaunchCompute(0, 1e9)
	fast := e - s
	_, d2 := testDevice()
	d2.SetSlowdown(3)
	s, e = d2.LaunchCompute(0, 1e9)
	slow := e - s
	if ratio := float64(slow) / float64(fast); ratio < 2.9 || ratio > 3.1 {
		t.Errorf("3x slowdown gave %.2fx kernels", ratio)
	}
	// Sub-1 factors clamp to nominal speed.
	d2.SetSlowdown(0.5)
	s, e = d2.LaunchReduce(0, 1<<20)
	clamped := e - s
	s, e = d.LaunchReduce(0, 1<<20)
	ref := e - s
	if clamped != ref {
		t.Errorf("slowdown clamp: reduce took %v, want %v", clamped, ref)
	}
}
