package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A small reader for the gzip-compressed protobuf that runtime/pprof
// writes, enough to attribute each CPU sample to the package of its leaf
// frame. It decodes the four messages that needs (Profile, Sample,
// Location, Function) and nothing else, so the benchmark needs neither
// `go tool pprof` at run time nor a module dependency.

var errProfile = errors.New("malformed profile")

// pbField is one decoded protobuf field: a varint (wire type 0) in v, or a
// length-delimited payload (wire type 2) in data.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProfile
}

// pbFields calls fn for every field of message b.
func pbFields(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, rest, err = pbVarint(rest); err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProfile
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = pbVarint(rest); err != nil {
				return err
			}
			if n > uint64(len(rest)) {
				return errProfile
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errProfile
			}
			rest = rest[4:]
		default:
			return errProfile
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// pbUints appends a repeated integer field, which the encoder writes
// packed (wire type 2) or one varint at a time.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	b := f.data
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// cpuSample is one stack of a CPU profile, leaf first, with its weight.
type cpuSample struct {
	stack  []string // function names, leaf first
	count  int64    // profiler ticks that saw this stack
	weight int64    // their CPU nanoseconds
}

// parseProfile decodes a runtime/pprof CPU profile into its samples.
func parseProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcNames = map[uint64]uint64{}   // function ID -> string index
		strs      []string
	)
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s rawSample
			err := pbFields(f.data, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(s.locs, g)
				case 2:
					s.values, err = pbUints(s.values, g)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line
					return pbFields(g.data, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(f.data, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// runtime/pprof writes two values a sample: samples/count, cpu/nanoseconds.
		cs := cpuSample{count: int64(s.values[0]), weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// funcPackage returns the import path of a Go symbol name:
// "scaffe/internal/sim.(*Kernel).Run" -> "scaffe/internal/sim".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// packageLayer maps the system's packages to the layers of the per-layer
// metrics; everything else (the facade, gpu, models, solver, chaos, the
// benchmark itself, the standard library outside the runtime) is "other".
var packageLayer = map[string]string{
	"scaffe/internal/sim":      "sim",
	"scaffe/internal/topology": "topology",
	"scaffe/internal/mpi":      "mpi",
	"scaffe/internal/coll":     "coll",
	"scaffe/internal/sched":    "sched",
	"scaffe/internal/core":     "core",
	"scaffe/internal/fault":    "fault",
	"scaffe/internal/tensor":   "tensor",
	"scaffe/internal/layers":   "layers",
	"scaffe/internal/data":     "data",
	"scaffe/internal/lmdb":     "data",
	"scaffe/internal/pfs":      "data",
	"scaffe/internal/trace":    "trace",
}

// Runtime functions that mark a stack as goroutine scheduling (park,
// ready, channel handoff, OS-thread sleep and wake) or as the memory
// manager (allocation, marking, sweeping, scavenging), matched as
// prefixes of the name after "runtime.".
var (
	goschedPrefixes = []string{
		"gopark", "goready", "ready", "schedule", "findRunnable", "park_m", "mcall", "gosched",
		"execute", "gogo", "chansend", "chanrecv", "send", "recv", "selectgo", "sellock", "selunlock",
		"futex", "note", "wakep", "startm", "stopm", "handoffp", "runq", "stealWork", "injectglist",
		"resetspinning", "pidle", "mPark", "sem", "usleep", "osyield", "procyield", "goexit",
		"newproc", "malg", "gfget", "gfput", "gdestroy", "casgstatus", "acquireSudog", "releaseSudog",
		"checkTimers", "(*timers)", "mstart", "(*waitq)", "dropg", "globrunq", "(*gQueue)", "(*gList)",
		"netpoll", "(*randomEnum)", "(*randomOrder)", "pMask", "mput", "mget", "acquirep", "releasep",
		"wakeNetPoller", "checkRunqsNoP", "checkIdleGCNoP", "preemptone", "retake", "sysmon",
	}
	gogcPrefixes = []string{
		"gc", "malloc", "newobject", "newarray", "makeslice", "growslice", "makechan", "makemap",
		"scanobject", "scanblock", "scanstack", "scanframe", "greyobject", "markroot", "markBits",
		"bgsweep", "sweep", "bgscavenge", "scav", "(*scavenge", "(*mheap)", "(*mspan)", "(*mcache)",
		"(*mcentral)", "(*gcWork)", "(*gcControllerState)", "(*gcCPULimiterState)", "(*sweepLocker)",
		"(*activeSweep)", "(*pageAlloc)", "(*pageCache)", "(*pageBits)", "(*pallocData)", "(*pallocBits)",
		"(*limiterEvent)", "(*gcBits", "(*spanSet)", "(*fixalloc)", "(*lfstack)", "(*stackScanState)",
		"(*unwinder)", "wbBuf", "heapBits", "heapSetType", "typePointers", "(*typePointers)", "nextFreeFast",
		"deductAssistCredit", "spanOf", "findObject", "putempty", "getempty", "putfull", "trygetfull",
		"pollWork", "publicationBarrier", "(*consistentHeapStats)", "(*sysMemStat)",
		"sysUnused", "sysUsed", "madvise", "(*mSpanStateBox)", "arenaIndex", "(*atomicHeadTailIndex)",
	}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// isRuntimePackage reports packages that implement the Go runtime.
func isRuntimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/cpu" || pkg == "internal/bytealg" || pkg == "internal/abi"
}

// sampleLayer attributes one sample to the layer of its leaf frame's
// package. A leaf inside the runtime is split by the nearest runtime
// frame, walking up from the leaf, that names the scheduler or the memory
// manager. A runtime leaf that is neither (memmove, a map access, a hash)
// is a helper the compiler called on behalf of ordinary code, and counts
// as self time of the nearest frame outside the runtime.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if !isRuntimePackage(pkg) {
			if l, ok := packageLayer[pkg]; ok {
				return l
			}
			return "other"
		}
		name := strings.TrimPrefix(fn[len(pkg):], ".")
		if hasAnyPrefix(name, gogcPrefixes) {
			return "gogc"
		}
		if hasAnyPrefix(name, goschedPrefixes) {
			return "gosched"
		}
	}
	return "other"
}

// attribution is the share of CPU samples per profile layer (summing to
// 1), plus the heaviest leaf functions that fell in "other", for the
// human-readable report.
type attribution struct {
	share    map[string]float64
	samples  int
	otherTop []string
}

func attribute(gz []byte) (attribution, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return attribution{}, err
	}
	a := attribution{share: map[string]float64{}}
	var total float64
	other := map[string]float64{}
	for _, s := range samples {
		l := sampleLayer(s.stack)
		a.samples += int(s.count)
		a.share[l] += float64(s.weight)
		total += float64(s.weight)
		if l == "other" && len(s.stack) > 0 {
			other[s.stack[0]] += float64(s.weight)
		}
	}
	if total == 0 { // a rep shorter than one sampling tick
		a.share = map[string]float64{"other": 1}
		return a, nil
	}
	for l := range a.share {
		a.share[l] /= total
	}
	for i := 0; i < 5 && len(other) > 0; i++ {
		best := ""
		for fn, w := range other {
			if best == "" || w > other[best] || (w == other[best] && fn < best) {
				best = fn
			}
		}
		a.otherTop = append(a.otherTop, fmt.Sprintf("%s %.3f", best, other[best]/total))
		delete(other, best)
	}
	return a, nil
}
