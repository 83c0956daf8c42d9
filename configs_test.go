package scaffe

import (
	"os"
	"path/filepath"
	"testing"

	"scaffe/internal/chaos"
)

// TestShippedConfigsLoad reads every file under configs/ through the
// front end that takes it, so a retired design name or a stale key in a
// shipped file fails here rather than when someone first runs it. A
// solver also trains one iteration: Config validation (a bucket size on
// a design that does not bucket, a cluster too small for its ranks) is
// only reached by a run.
func TestShippedConfigsLoad(t *testing.T) {
	solvers, err := filepath.Glob("configs/*.prototxt")
	if err != nil {
		t.Fatal(err)
	}
	if len(solvers) == 0 {
		t.Fatal("no solver prototxt under configs/")
	}
	for _, path := range solvers {
		cfg, err := LoadSolver(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		cfg.Iterations = 1
		if _, err := Train(cfg); err != nil {
			t.Errorf("%s: one iteration: %v", path, err)
		}
	}
	for _, name := range []string{"faults_demo.txt", "elastic_demo.txt"} {
		if _, err := LoadFaultSchedule(filepath.Join("configs", name)); err != nil {
			t.Errorf("configs/%s: %v", name, err)
		}
	}
	text, err := os.ReadFile("configs/chaos_demo.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chaos.ParseSpec(string(text)); err != nil {
		t.Errorf("configs/chaos_demo.txt: %v", err)
	}
}
