package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestCheckSolverFlags runs checkSolverFlags over command lines: every
// run-shaping flag set beside -solver is named, in the order flag.Visit
// gives (by name), and -seed, -bucket-bytes and -real pass.
func TestCheckSolverFlags(t *testing.T) {
	cases := []struct {
		args string
		want string // the error's flag list; "" for none
	}{
		{"-model tiny -gpus 4", ""},
		{"-solver s.prototxt", ""},
		{"-solver s.prototxt -seed 7 -bucket-bytes 4096 -real", ""},
		{"-solver s.prototxt -gpus 8", "-gpus"},
		{"-model tiny -solver s.prototxt -iters 3 -design scb -seed 2", "-design, -iters, -model"},
		{"-solver s.prototxt -nodes 2 -gpus-per-node 2 -batch 64 -scal weak -reduce cc -chain 4 -data lmdb",
			"-batch, -chain, -data, -gpus-per-node, -nodes, -reduce, -scal"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("scaffe-train", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.String("solver", "", "")
		for _, name := range runShapingFlags {
			fs.String(strings.TrimPrefix(name, "-"), "", "")
		}
		fs.Int64("seed", 1, "")
		fs.Int64("bucket-bytes", 0, "")
		fs.Bool("real", false, "")
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err := checkSolverFlags(fs)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q: %v, want no error", tc.args, err)
		case tc.want != "" && (err == nil || !strings.HasSuffix(err.Error(), "drop "+tc.want)):
			t.Errorf("%q: %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}
