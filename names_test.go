package scaffe

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"scaffe/internal/chaos"
	"scaffe/internal/proto"
)

// The names every front end must take, and what they mean. The four
// front ends used to keep a copy of this table each, and the copies had
// drifted: the prototxt did not know "inspur", omb-reduce not "tuned",
// a chaos spec none of rsg, hr, ccb, mv2 and openmpi.
var (
	designTable = map[string]Design{
		"scb": SCB, "scob": SCOB, "scobr": SCOBR, "caffe": Caffe,
		"cntk": CNTK, "ps": InspurPS, "inspur": InspurPS,
	}
	reduceTable = map[string]ReduceAlgorithm{
		"binomial": ReduceBinomial, "chain": ReduceChain, "cc": ReduceCC, "cb": ReduceCB, "ccb": ReduceCCB,
		"hr": ReduceHR, "tuned": ReduceHR, "mv2": ReduceMV2, "openmpi": ReduceOpenMPI,
		"rsg": ReduceRabenseifner, "rabenseifner": ReduceRabenseifner,
	}
	sourceTable = map[string]SourceKind{"memory": InMemory, "lmdb": LMDB, "imagedata": ImageData}
)

// TestEveryFrontEndTakesEveryName drives the table through the parsers
// (in either case) and, in process, through the two front ends that are
// libraries: the solver prototxt and the chaos spec. Every design's and
// algorithm's Name, the spelling a chaos summary prints, parses back.
func TestEveryFrontEndTakesEveryName(t *testing.T) {
	solver := func(field, name string) Config {
		cfg, err := proto.ParseSolver(fmt.Sprintf("net: \"tiny\"\n%s: %q\n", field, name))
		if err != nil {
			t.Errorf("prototxt %s %q: %v", field, name, err)
		}
		return cfg
	}
	spec := func(key, name string) chaos.Spec {
		s, err := chaos.ParseSpec("seed = 1\n" + key + " = " + name)
		if err != nil {
			t.Errorf("chaos %s = %s: %v", key, name, err)
		}
		return s
	}
	for name, want := range designTable {
		got, err := ParseDesign(strings.ToUpper(name))
		if err != nil || got != want || solver("scaffe_design", name).Design != want || spec("design", name).Design != want {
			t.Errorf("design %q: parsed %v, %v; want %v from every front end", name, got, err, want)
		}
		if back, err := ParseDesign(want.Name()); err != nil || back != want {
			t.Errorf("design %v: its Name %q parses as %v, %v", want, want.Name(), back, err)
		}
	}
	for name, want := range reduceTable {
		got, err := ParseReduceAlgorithm(strings.ToUpper(name))
		if err != nil || got != want || solver("scaffe_reduce", name).Reduce != want || spec("reduce", name).Reduce != want {
			t.Errorf("reduce %q: parsed %v, %v; want %v from every front end", name, got, err, want)
		}
		if back, err := ParseReduceAlgorithm(want.Name()); err != nil || back != want {
			t.Errorf("reduce %v: its Name %q parses as %v, %v", want, want.Name(), back, err)
		}
	}
	for name, want := range sourceTable {
		got, err := ParseSource(strings.ToUpper(name))
		if err != nil || got != want || solver("scaffe_data", name).Source != want {
			t.Errorf("data %q: parsed %v, %v; want %v from every front end", name, got, err, want)
		}
	}
	_, err1 := ParseDesign("hybrid")
	_, err2 := ParseReduceAlgorithm("ring")
	_, err3 := ParseSource("tape")
	if err1 == nil || err2 == nil || err3 == nil {
		t.Errorf("an unknown name parsed: %v, %v, %v", err1, err2, err3)
	}
}

// TestCommandsTakeEveryName builds the two front ends that are commands
// and runs each name through its flag on the smallest run every design
// accepts; an unknown name exits non-zero.
func TestCommandsTakeEveryName(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/scaffe-train and cmd/omb-reduce")
	}
	dir := t.TempDir()
	if msg, err := exec.Command("go", "build", "-o", dir, "./cmd/scaffe-train", "./cmd/omb-reduce").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, msg)
	}
	// 4 GPUs on one node, batch 12: divisible by 4 solvers and by the
	// parameter server's 3 workers.
	train := func(design, reduce, source string) ([]byte, error) {
		return exec.Command(filepath.Join(dir, "scaffe-train"), "-model", "tiny", "-gpus", "4", "-nodes", "1",
			"-batch", "12", "-iters", "1", "-design", design, "-reduce", reduce, "-data", source).CombinedOutput()
	}
	var algs []string
	for name := range designTable {
		if msg, err := train(name, "binomial", "memory"); err != nil {
			t.Errorf("scaffe-train -design %s: %v\n%s", name, err, msg)
		}
	}
	for name := range reduceTable {
		if msg, err := train("scb", name, "memory"); err != nil {
			t.Errorf("scaffe-train -reduce %s: %v\n%s", name, err, msg)
		}
		algs = append(algs, name)
	}
	for name := range sourceTable {
		if msg, err := train("scb", "binomial", name); err != nil {
			t.Errorf("scaffe-train -data %s: %v\n%s", name, err, msg)
		}
	}
	if msg, err := train("hybrid", "binomial", "memory"); err == nil {
		t.Errorf("scaffe-train -design hybrid ran:\n%s", msg)
	}
	if msg, err := exec.Command(filepath.Join(dir, "omb-reduce"), "-ranks", "4", "-algs", strings.Join(algs, ","),
		"-min", "4096", "-max", "4096", "-trials", "1").CombinedOutput(); err != nil {
		t.Errorf("omb-reduce -algs %v: %v\n%s", algs, err, msg)
	}
}
