package pfs

import (
	"testing"

	"scaffe/internal/sim"
)

func TestReadSpreadScalesWithBytes(t *testing.T) {
	read := func(bytes int64) sim.Time { return Default(sim.New()).ReadSpread(0, bytes, 1) }
	small := read(1 << 20)
	large := read(1 << 30)
	if large <= small {
		t.Errorf("1GB read (%v) should cost more than 1MB (%v)", large, small)
	}
}

func TestClientBandwidthCap(t *testing.T) {
	fs := New(sim.New(), 64, 3e9, 1e9) // slow client link
	// 1 GB at 1 GB/s client cap ≈ 1.07s regardless of 192 GB/s of OSTs.
	if took := fs.ReadSpread(0, 1<<30, 1); took < 1*sim.Second {
		t.Errorf("client cap ignored: read took %v", took)
	}
}

func TestAggregateBandwidthShared(t *testing.T) {
	// Many clients reading simultaneously share the OST pool: total
	// time grows once aggregate bandwidth saturates.
	finish := func(clients int) sim.Time {
		fs := New(sim.New(), 4, 1e9, 10e9) // 4 GB/s aggregate
		var latest sim.Time
		for i := 0; i < clients; i++ {
			latest = max(latest, fs.ReadSpread(0, 1<<28, 1)) // 256 MB each
		}
		return latest
	}
	one := finish(1)
	eight := finish(8)
	if eight < 6*one {
		t.Errorf("8 clients on a saturated pool finished in %v vs single %v", eight, one)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero OSTs")
		}
	}()
	New(sim.New(), 0, 1e9, 1e9)
}
