package proto

import (
	"fmt"
	"os"
	"strings"

	"scaffe/internal/coll"
	"scaffe/internal/core"
	"scaffe/internal/models"
)

// SolverFields documents the supported solver prototxt surface: the
// standard Caffe solver fields plus the S-Caffe extensions (the
// original release configured its distributed behaviour through the
// launcher; here they live in the same file for convenience).
//
//	net: "googlenet"            # model name from the zoo
//	batch_size: 1280
//	max_iter: 100
//	base_lr: 0.01
//	lr_policy: "step"           # fixed | step | inv | poly
//	gamma: 0.1
//	power: 0.75
//	stepsize: 20
//	momentum: 0.9
//	weight_decay: 0.0005
//	test_interval: 50
//	test_batches: 2
//	snapshot: 50
//	snapshot_prefix: "snap/run"
//	# --- S-Caffe extensions ---
//	scaffe_design: "scobr"      # scb | scob | scobr | caffe | cntk | ps (or inspur)
//	scaffe_reduce: "hr"         # binomial | chain | cc | cb | ccb | hr | mv2 | openmpi | rsg
//	scaffe_chain_size: 8
//	scaffe_bucket_bytes: 4194304  # gradient fusion bucket (scobr only)
//	scaffe_data: "imagedata"    # memory | lmdb | imagedata
//	scaffe_gpus: 160
//	scaffe_nodes: 12
//	scaffe_gpus_per_node: 16
//	scaffe_scal: "strong"       # strong | weak
const SolverFields = "see package documentation"

// LoadSolver reads and parses a solver prototxt file into a training
// config.
func LoadSolver(path string) (core.Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return core.Config{}, fmt.Errorf("proto: %w", err)
	}
	return ParseSolver(string(raw))
}

// ParseSolver maps solver prototxt text onto a core.Config. The model
// named by `net` is resolved from the zoo; distributed behaviour comes
// from the scaffe_* extension fields.
func ParseSolver(text string) (core.Config, error) {
	var cfg core.Config
	d, err := Parse(text)
	if err != nil {
		return cfg, err
	}
	netName := d.String("net", "")
	if netName == "" {
		return cfg, fmt.Errorf("proto: solver needs a net: field")
	}
	spec, err := models.ByName(netName)
	if err != nil {
		return cfg, err
	}
	cfg.Spec = spec

	if cfg.GlobalBatch, err = d.Int("batch_size", 256); err != nil {
		return cfg, err
	}
	if cfg.Iterations, err = d.Int("max_iter", 100); err != nil {
		return cfg, err
	}
	if cfg.BaseLR, err = d.Float("base_lr", 0.01); err != nil {
		return cfg, err
	}
	cfg.LRPolicy = d.String("lr_policy", "fixed")
	if cfg.Gamma, err = d.Float("gamma", 0); err != nil {
		return cfg, err
	}
	if cfg.Power, err = d.Float("power", 0); err != nil {
		return cfg, err
	}
	if cfg.StepSize, err = d.Int("stepsize", 0); err != nil {
		return cfg, err
	}
	if cfg.Momentum, err = d.Float("momentum", 0); err != nil {
		return cfg, err
	}
	if cfg.WeightDecay, err = d.Float("weight_decay", 0); err != nil {
		return cfg, err
	}
	if cfg.TestInterval, err = d.Int("test_interval", 0); err != nil {
		return cfg, err
	}
	if cfg.TestBatches, err = d.Int("test_batches", 0); err != nil {
		return cfg, err
	}
	if cfg.SnapshotEvery, err = d.Int("snapshot", 0); err != nil {
		return cfg, err
	}
	cfg.SnapshotPrefix = d.String("snapshot_prefix", "")

	if cfg.Design, err = core.ParseDesign(d.String("scaffe_design", "scobr")); err != nil {
		return cfg, fmt.Errorf("proto: scaffe_design: %w", err)
	}
	if cfg.Reduce, err = coll.ParseAlgorithm(d.String("scaffe_reduce", "hr")); err != nil {
		return cfg, fmt.Errorf("proto: scaffe_reduce: %w", err)
	}
	if cfg.Source, err = core.ParseSource(d.String("scaffe_data", "imagedata")); err != nil {
		return cfg, fmt.Errorf("proto: scaffe_data: %w", err)
	}
	if cfg.GPUs, err = d.Int("scaffe_gpus", 16); err != nil {
		return cfg, err
	}
	if cfg.Nodes, err = d.Int("scaffe_nodes", 0); err != nil {
		return cfg, err
	}
	if cfg.GPUsPerNode, err = d.Int("scaffe_gpus_per_node", 0); err != nil {
		return cfg, err
	}
	if cfg.ReduceOpts.ChainSize, err = d.Int("scaffe_chain_size", 0); err != nil {
		return cfg, err
	}
	bucket, err := d.Int("scaffe_bucket_bytes", 0)
	if err != nil {
		return cfg, err
	}
	cfg.BucketBytes = int64(bucket)
	cfg.ReduceOpts.OnGPU = true
	switch scal := strings.ToLower(d.String("scaffe_scal", "strong")); scal {
	case "strong":
	case "weak":
		cfg.Weak = true
	default:
		return cfg, fmt.Errorf("proto: unknown scaffe_scal %q", scal)
	}
	return cfg, nil
}
