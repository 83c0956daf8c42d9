package proto

import (
	"os"
	"path/filepath"
	"testing"

	"scaffe/internal/coll"
	"scaffe/internal/core"
)

func TestParseBasics(t *testing.T) {
	d, err := Parse(`
# a comment
net: "googlenet"
base_lr: 0.01     # trailing comment
max_iter: 100
repeated: 1
repeated: 2
flag: true
`)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String("net", ""); got != "googlenet" {
		t.Errorf("net = %q", got)
	}
	if v, _ := d.Float("base_lr", 0); v != 0.01 {
		t.Errorf("base_lr = %v", v)
	}
	if v, _ := d.Int("max_iter", 0); v != 100 {
		t.Errorf("max_iter = %v", v)
	}
	if vs := d.Strings("repeated"); len(vs) != 2 || vs[0] != "1" || vs[1] != "2" {
		t.Errorf("repeated = %v", vs)
	}
	if v, _ := d.Int("repeated", 0); v != 2 {
		t.Errorf("last repeated = %v", v)
	}
	if b, _ := d.Bool("flag", false); !b {
		t.Error("flag should parse true")
	}
	if !d.Has("net") || d.Has("absent") {
		t.Error("Has is wrong")
	}
	if d.String("absent", "dflt") != "dflt" {
		t.Error("default fallthrough broken")
	}
}

func TestParseNestedBlocks(t *testing.T) {
	d, err := Parse(`
outer {
  inner {
    x: 5
  }
  y: "z"
}
top: 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Int("outer.inner.x", 0); v != 5 {
		t.Errorf("nested x = %v", v)
	}
	if d.String("outer.y", "") != "z" {
		t.Error("nested y wrong")
	}
	keys := d.Keys()
	if len(keys) != 3 || keys[0] != "outer.inner.x" {
		t.Errorf("keys = %v", keys)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"}",
		"block {",
		"novalue:",
		"junk line",
		`s: "unterminated`,
		"two words {",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestTypeErrors(t *testing.T) {
	d, err := Parse("x: notanint\ny: notafloat\nz: notabool")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Int("x", 0); err == nil {
		t.Error("Int should fail")
	}
	if _, err := d.Float("y", 0); err == nil {
		t.Error("Float should fail")
	}
	if _, err := d.Bool("z", false); err == nil {
		t.Error("Bool should fail")
	}
}

const sampleSolver = `
# GoogLeNet at paper scale
net: "googlenet"
batch_size: 1280
max_iter: 40
base_lr: 0.01
lr_policy: "step"
gamma: 0.1
stepsize: 20
momentum: 0.9
weight_decay: 0.0002
scaffe_design: "scobr"
scaffe_reduce: "hr"
scaffe_chain_size: 8
scaffe_data: "imagedata"
scaffe_gpus: 160
scaffe_nodes: 12
scaffe_gpus_per_node: 16
`

func TestParseSolver(t *testing.T) {
	cfg, err := ParseSolver(sampleSolver)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Spec.Name != "googlenet" || cfg.GPUs != 160 || cfg.GlobalBatch != 1280 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Design != core.SCOBR || cfg.Reduce != coll.Tuned || cfg.Source != core.ImageDataSource {
		t.Errorf("design/reduce/source wrong: %v %v %v", cfg.Design, cfg.Reduce, cfg.Source)
	}
	if cfg.LRPolicy != "step" || cfg.StepSize != 20 || cfg.Momentum != 0.9 {
		t.Errorf("solver hypers wrong")
	}
	if cfg.ReduceOpts.ChainSize != 8 || !cfg.ReduceOpts.OnGPU {
		t.Errorf("reduce opts wrong: %+v", cfg.ReduceOpts)
	}
}

func TestParseSolverDefaultsAndErrors(t *testing.T) {
	if _, err := ParseSolver("base_lr: 0.1"); err == nil {
		t.Error("solver without net should fail")
	}
	if _, err := ParseSolver(`net: "nosuchmodel"`); err == nil {
		t.Error("unknown model should fail")
	}
	for _, bad := range []string{
		`net: "tiny"` + "\n" + `scaffe_design: "magic"`,
		`net: "tiny"` + "\n" + `scaffe_reduce: "magic"`,
		`net: "tiny"` + "\n" + `scaffe_data: "magic"`,
		`net: "tiny"` + "\n" + `scaffe_scal: "diagonal"`,
	} {
		if _, err := ParseSolver(bad); err == nil {
			t.Errorf("ParseSolver(%q) should fail", bad)
		}
	}
	cfg, err := ParseSolver(`net: "tiny"`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Design != core.SCOBR || cfg.GPUs != 16 || cfg.Iterations != 100 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	weak, err := ParseSolver("net: \"tiny\"\nscaffe_scal: \"weak\"")
	if err != nil {
		t.Fatal(err)
	}
	if !weak.Weak {
		t.Error("weak scaling not set")
	}
}

func TestLoadSolverAndRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solver.prototxt")
	text := `
net: "cifar10-quick"
batch_size: 64
max_iter: 3
scaffe_gpus: 4
scaffe_data: "lmdb"
scaffe_design: "scb"
scaffe_reduce: "binomial"
`
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadSolver(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUs != 4 || res.Iterations != 3 {
		t.Errorf("run = %+v", res)
	}
	if _, err := LoadSolver(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestParseSolverBucketedDesign(t *testing.T) {
	cfg, err := ParseSolver(`net: "googlenet"
scaffe_design: "scobr"
scaffe_bucket_bytes: 2097152`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Design != core.SCOBR {
		t.Errorf("design = %v, want SCOBR", cfg.Design)
	}
	if cfg.BucketBytes != 2<<20 {
		t.Errorf("bucket bytes = %d, want 2MiB", cfg.BucketBytes)
	}
	// Without the field the knob stays zero: SC-OBR reduces per layer.
	plain, err := ParseSolver(`net: "googlenet"
scaffe_design: "scobr"`)
	if err != nil {
		t.Fatal(err)
	}
	if plain.BucketBytes != 0 {
		t.Errorf("bucket bytes = %d, want 0", plain.BucketBytes)
	}
}
