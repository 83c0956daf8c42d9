// Package prof gives the repository's binaries the standard profiling
// flags — -cpuprofile, -memprofile, -memprofilerate, as `go test` spells
// them — over plain runtime/pprof. Unset, they do nothing at all.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations a command line asked for.
type Flags struct {
	cpu, mem *string
	memRate  *int
}

// Register adds the profiling flags to fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu:     fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		mem:     fs.String("memprofile", "", "write an allocation profile of the run to this file (go tool pprof -sample_index=alloc_space)"),
		memRate: fs.Int("memprofilerate", 0, "with -memprofile: sample one allocation per this many bytes (0 = the runtime's default, 512 KiB; 1 = every allocation)"),
	}
}

// Start begins the profiles that were asked for; call it after
// flag.Parse and before the work. The stop it returns ends the CPU
// profile and writes the allocation profile: call it once, when the work
// is done and before the process exits.
func (f *Flags) Start() (stop func() error, err error) {
	var cpu *os.File
	if *f.cpu != "" {
		if cpu, err = os.Create(*f.cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if *f.mem != "" && *f.memRate > 0 {
		runtime.MemProfileRate = *f.memRate
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if *f.mem == "" {
			return nil
		}
		out, err := os.Create(*f.mem)
		if err != nil {
			return err
		}
		runtime.GC() // the profile reports allocations as of the last collection
		if err := pprof.Lookup("allocs").WriteTo(out, 0); err != nil {
			out.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		return out.Close()
	}, nil
}
