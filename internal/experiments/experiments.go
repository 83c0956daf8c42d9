// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 6) from the simulator, as machine- and
// human-readable tables. Each experiment corresponds to one entry of
// DESIGN.md's experiment index and is exercised both by
// cmd/experiments and by the repository-level benchmarks.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one regenerated result table/figure.
type Table struct {
	// ID matches the experiment index ("figure8", "table2", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells.
	Rows [][]string
	// Notes carries paper-vs-measured commentary.
	Notes []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a commentary line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	b.WriteString("\n")
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// Options scales experiment effort: the command-line harness runs Full
// fidelity; the benchmarks run reduced iteration counts at identical
// configuration shapes.
type Options struct {
	// Iterations overrides the per-run training iteration count
	// (0 = experiment default).
	Iterations int
	// MaxGPUs caps the sweep (0 = experiment default, 160).
	MaxGPUs int
}

func (o Options) iters(def int) int {
	if o.Iterations > 0 {
		return o.Iterations
	}
	return def
}

func (o Options) cap(gpus []int) []int {
	if o.MaxGPUs == 0 {
		return gpus
	}
	var out []int
	for _, g := range gpus {
		if g <= o.MaxGPUs {
			out = append(out, g)
		}
	}
	return out
}

// Runner is the registry entry for one experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Options) (*Table, error)
}

// All returns every experiment in the order of the paper's evaluation.
func All() []Runner {
	return []Runner{
		{"table1", "Design and feature space of DL frameworks", Table1},
		{"figure8", "GoogLeNet strong scaling to 160 GPUs (S-Caffe vs S-Caffe-L vs Caffe)", Figure8},
		{"figure9", "CIFAR10 quick solver scaling to 64 GPUs", Figure9},
		{"figure10", "AlexNet samples/sec: S-Caffe vs CNTK vs Inspur-Caffe (Cluster-B)", Figure10},
		{"figure11", "Reduce latency at 160 GPUs: MV2 vs CC/CB variants vs HR(Tuned)", Figure11},
		{"figure12", "Reduce latency: HR vs MVAPICH2 vs OpenMPI", Figure12},
		{"figure13", "SC-B vs SC-OB overlap of propagation and forward", Figure13},
		{"table2", "SC-B vs SC-B(+HR): aggregation and overall speedups", Table2},
		{"scobr", "SC-OBR helper-thread overlap vs SC-B (CaffeNet, Section 6.6)", SCOBR},
		{"costmodel", "Eq.(1)/(2) analytic model: chain vs binomial crossover", CostModel},
		{"weakscaling", "Extension: weak scaling (the paper's -scal weak mode)", WeakScaling},
		{"threelevel", "Extension: three-level CCB reduce (paper future work)", ThreeLevelReduce},
		{"allreduce", "Extension: HR reduce+bcast vs ring allreduce retrospective", AllreduceRetrospective},
		{"skew", "Extension: straggler sensitivity of chain vs binomial upper levels", Skew},
		{"bucketing", "Extension: SC-OBR gradient-fusion granularity sweep", Bucketing},
		{"scobrf", "Extension: SC-OBR-F fused-bucket design vs per-layer SC-OBR", SCOBRF},
		{"mpdp", "Extension: data-parallel vs model-parallel (Table 1 design space)", MPvsDP},
		{"accuracy", "Real-compute training equivalence (the §6.2 accuracy validation)", Accuracy},
		{"faults", "Extension: MTBF × snapshot-interval sweep of elastic fault tolerance", Faults},
		{"sdc", "Extension: silent-data-corruption detection and recovery drill", SDC},
		{"elastic", "Extension: churn × snapshot-interval sweep of elastic scale-up vs static shrink", Elastic},
		{"chaos", "Extension: partition-rate × heal-time sweep of split-brain fencing and rejoin", Chaos},
	}
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Table1 reproduces the qualitative feature matrix (Table 1).
func Table1(Options) (*Table, error) {
	t := &Table{
		ID:    "table1",
		Title: "Design and Features Space for Modern Deep Learning Frameworks",
		Columns: []string{"Framework", "Basic MPI", "CUDA-Aware MPI", "Overlapped (NBC)",
			"Co-Designed w/ MPI", "Multi-GPU", "Parallelism", "Aggregation"},
	}
	t.AddRow("Caffe", "no", "no", "no", "no", "yes", "DP", "Reduction-Tree")
	t.AddRow("FireCaffe", "yes", "unknown", "no", "unknown", "yes", "DP", "Reduction-Tree")
	t.AddRow("MPI-Caffe", "yes", "no", "no", "no", "yes", "MP", "N/A")
	t.AddRow("CNTK", "yes", "no", "no", "no", "yes", "MP/DP", "Parameter-Server")
	t.AddRow("Inspur-Caffe", "yes", "yes", "no", "no", "yes", "DP", "Parameter-Server")
	t.AddRow("S-Caffe (this system)", "yes", "yes", "yes", "yes", "yes", "DP", "Reduction-Tree")
	t.Note("Qualitative table reproduced verbatim from the paper; this repository implements the S-Caffe row and simulates the Caffe, MPI-Caffe (model-parallel), CNTK, and Inspur-Caffe rows as baselines (see the mpdp extension experiment).")
	return t, nil
}
