package coll

import (
	"fmt"
	"testing"

	"scaffe/internal/mpi"
	"scaffe/internal/sim"
)

// ibcastPinRun runs IbcastLatency over p ranks (4 GPUs a node) and
// renders the measured span, the run's end and the kernel's steps. With
// integ set the world checksums every broadcast edge under it, and the
// line adds its counters and the run's error.
func ibcastPinRun(t *testing.T, p int, bytes int64, compute sim.Duration, integ *mpi.Integrity) string {
	t.Helper()
	w := newWorld(t, (p+3)/4, 4, p)
	w.Integrity = integ
	span, err := IbcastLatency(w, bytes, compute)
	s := fmt.Sprintf("span=%d end=%d steps=%d", int64(span), int64(w.K.Now()), w.K.Resumes().Steps)
	if integ != nil {
		s += fmt.Sprintf(" verified=%d detected=%d retransmits=%d escalations=%d err=%v",
			integ.Verified, integ.Detected, integ.Retransmits, integ.Escalations, err)
	} else if err != nil {
		s += fmt.Sprintf(" err=%v", err)
	}
	return s
}

// everyThird corrupts the second of every three checksummed edge
// landings the world sees, retransmits included.
func everyThird() func(src, dst int) bool {
	calls := 0
	return func(src, dst int) bool {
		calls++
		return calls%3 == 2
	}
}

// TestIbcastLatencyPinned pins the offloaded broadcast's event timing
// over communicator sizes that are powers of two and not, messages that
// go eager and pipelined, with and without compute overlapped at the
// last rank: the driver's span, the run's end and the kernel's steps.
func TestIbcastLatencyPinned(t *testing.T) {
	for _, p := range []int{2, 3, 8, 13, 33, 160} {
		for _, bytes := range []int64{4 << 10, 1 << 20, 64 << 20, 256 << 20} {
			for _, compute := range []sim.Duration{0, 100 * sim.Microsecond} {
				key := fmt.Sprintf("%d/%d/%d", p, bytes, int64(compute))
				got := ibcastPinRun(t, p, bytes, compute, nil)
				if want, ok := ibcastPins[key]; !ok {
					t.Errorf("%s: no pin; recorded %q", key, got)
				} else if got != want {
					t.Errorf("%s:\n got %s\nwant %s", key, got, want)
				}
			}
		}
	}
}

// TestIbcastIntegrityPinned pins checksummed broadcast edges in recover
// mode with a retry budget of 2 on a wire that corrupts every third
// landing: a corrupted edge is booked again from its parent's buffer
// and verified again on landing, and an edge that exhausts its budget
// revokes the world's plane and stays uncommitted. The world's plane is
// the idle one, whose waits have no deadline, so a revoked broadcast
// ends the run in a deadlock rather than commit the damaged payload.
func TestIbcastIntegrityPinned(t *testing.T) {
	for _, p := range []int{3, 13, 33} {
		key := fmt.Sprint(p)
		got := ibcastPinRun(t, p, 1<<20, 100*sim.Microsecond, &mpi.Integrity{
			Mode:        mpi.IntegrityRecover,
			RetryBudget: 2,
			WireCorrupt: everyThird(),
		})
		if want, ok := ibcastIntegrityPins[key]; !ok {
			t.Errorf("%s: no pin; recorded %q", key, got)
		} else if got != want {
			t.Errorf("%s:\n got %s\nwant %s", key, got, want)
		}
	}
}

// ibcastPins holds what TestIbcastLatencyPinned recorded, by ranks,
// bytes and overlapped compute in ns.
var ibcastPins = map[string]string{
	"2/4096/0":             "span=5409 end=9409 steps=6",
	"2/4096/100000":        "span=100000 end=104000 steps=7",
	"2/1048576/0":          "span=109857 end=113857 steps=6",
	"2/1048576/100000":     "span=109857 end=113857 steps=7",
	"2/67108864/0":         "span=6715886 end=6719886 steps=6",
	"2/67108864/100000":    "span=6715886 end=6719886 steps=7",
	"2/268435456/0":        "span=26848545 end=26852545 steps=6",
	"2/268435456/100000":   "span=26848545 end=26852545 steps=7",
	"3/4096/0":             "span=8818 end=16818 steps=16",
	"3/4096/100000":        "span=100000 end=108000 steps=16",
	"3/1048576/0":          "span=217714 end=225714 steps=16",
	"3/1048576/100000":     "span=217714 end=225714 steps=17",
	"3/67108864/0":         "span=13429772 end=13437772 steps=16",
	"3/67108864/100000":    "span=13429772 end=13437772 steps=17",
	"3/268435456/0":        "span=53695090 end=53703090 steps=16",
	"3/268435456/100000":   "span=53695090 end=53703090 steps=17",
	"8/4096/0":             "span=15956 end=47956 steps=63",
	"8/4096/100000":        "span=100000 end=132000 steps=63",
	"8/1048576/0":          "span=354785 end=386785 steps=63",
	"8/1048576/100000":     "span=354785 end=386785 steps=64",
	"8/67108864/0":         "span=20172872 end=20204872 steps=63",
	"8/67108864/100000":    "span=20172872 end=20204872 steps=64",
	"8/268435456/0":        "span=80570849 end=80602849 steps=63",
	"8/268435456/100000":   "span=80570849 end=80602849 steps=64",
	"13/4096/0":            "span=16276 end=77094 steps=131",
	"13/4096/100000":       "span=100000 end=150000 steps=127",
	"13/1048576/0":         "span=276142 end=545856 steps=131",
	"13/1048576/100000":    "span=276142 end=545856 steps=132",
	"13/67108864/0":        "span=13488200 end=26969972 steps=131",
	"13/67108864/100000":   "span=13488200 end=26969972 steps=132",
	"13/268435456/0":       "span=53753518 end=107500608 steps=131",
	"13/268435456/100000":  "span=53753518 end=107500608 steps=132",
	"33/4096/0":            "span=7138 end=115370 steps=487",
	"33/4096/100000":       "span=100000 end=174000 steps=478",
	"33/1048576/0":         "span=137071 end=843998 steps=487",
	"33/1048576/100000":    "span=137071 end=843998 steps=488",
	"33/67108864/0":        "span=6743100 end=40480172 steps=487",
	"33/67108864/100000":   "span=6743100 end=40480172 steps=488",
	"33/268435456/0":       "span=26875759 end=161276126 steps=487",
	"33/268435456/100000":  "span=26875759 end=161276126 steps=488",
	"160/4096/0":           "span=69878 end=187878 steps=2934",
	"160/4096/100000":      "span=100000 end=228000 steps=2893",
	"160/1048576/0":        "span=1657067 end=1775067 steps=2933",
	"160/1048576/100000":   "span=1657067 end=1775067 steps=2934",
	"160/67108864/0":       "span=87535444 end=87653444 steps=2933",
	"160/67108864/100000":  "span=87535444 end=87653444 steps=2934",
	"160/268435456/0":      "span=349260011 end=349378011 steps=2933",
	"160/268435456/100000": "span=349260011 end=349378011 steps=2934",
}

// ibcastIntegrityPins holds what TestIbcastIntegrityPinned recorded, by
// ranks.
var ibcastIntegrityPins = map[string]string{
	"3":  "span=327571 end=335571 steps=17 verified=2 detected=1 retransmits=1 escalations=0 err=<nil>",
	"13": "span=276142 end=1355283 steps=126 verified=12 detected=6 retransmits=6 escalations=0 err=<nil>",
	"33": "span=137071 end=2450066 steps=273 verified=30 detected=15 retransmits=14 escalations=1 err=sim: deadlock at 2.450ms: 16 proc(s) parked: [rank0 rank1 rank2 rank3 rank4 rank6 rank7 rank8 rank9 rank10 rank11 rank12 rank14 rank16 rank24 rank32]",
}
