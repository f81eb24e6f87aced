package main

import "time"

// workload is one configuration the benchmark runs. Every workload trains a
// model from generated events and then serves it, so every run reports every
// metric; the workloads differ in which layers dominate.
type workload struct {
	name, why string

	backend       string  // training and serving backend
	events        int     // generated raw events; a balanced half of them is used, split 3:1 train/test
	mcus          int     // 1 HCU of this many MCUs
	sparsity      float64 // core.Params.TargetSparsity
	sparseCompute bool
	hybrid        bool // SGD readout in place of the BCPNN classifier
	unsup, sup    int  // epochs

	// Shares of --seconds: training repeats until trainShare has passed
	// (at least twice; once when trainShare is 0), then the open loop and
	// the closed loop run.
	trainShare, openShare, closedShare float64
}

// serveOnly reports whether training only makes the served model's input.
func (w *workload) serveOnly() bool { return w.trainShare == 0 }

// minRuns is the least number of training runs.
func (w *workload) minRuns() int {
	if w.serveOnly() {
		return 1
	}
	return 2
}

var workloads = []workload{
	{
		name: "train-dense",
		why: "The paper's pipeline on the fastest backend: fused whole-layer steps, BCPNN readout, " +
			"1x1000 MCUs, 30k/10k events, 4+4 epochs. Stresses LayerStep and the frozen-layer supervised phase",
		backend: "fused", events: 80000, mcus: 1000, unsup: 4, sup: 4,
		trainShare: 0.5, openShare: 0.55, closedShare: 0.15,
	},
	{
		name: "train-sparse-hybrid",
		why: "The paper's best setup on the default backend: composed kernels, 80% block sparsity with " +
			"prune/regrow, SGD readout. Bypasses LayerStep and the BCPNN readout that train-dense runs",
		backend: "parallel", events: 80000, mcus: 1000, sparsity: 0.8, sparseCompute: true, hybrid: true,
		unsup: 4, sup: 4,
		trainShare: 0.5, openShare: 0.55, closedShare: 0.15,
	},
	{
		name: "serve-events",
		why: "1-event requests, binary and JSON alternating, to the train-dense model trained once on composed " +
			"kernels; open loop, then 2 clients. Fleet, mpi, stream left out: need more processes than 2 cores",
		backend: "parallel", events: 80000, mcus: 1000, unsup: 4, sup: 4,
		openShare: 0.6, closedShare: 0.15,
	},
}

// Serving load. The open-loop rate is fixed, near half the closed-loop
// capacity of a 2-core machine, so a faster server shows as lower latency
// at the same offered load. Both loops are cut into windows and report the
// median window, so one stall of the machine moves one window, not the
// figure; an open-loop window holds enough requests for ten beyond its p99.
const (
	openRate     = 300 // requests per second
	windows      = 3
	windowMinReq = 1100
	clients      = 2 // connections, open and closed loop alike
	poolEvents   = 1024
	bins         = 10 // quantile one-hot bins per feature (paper §V)
)

// setupRuns is how many standalone set-ups are timed before the measured
// work; setup_s is their median.
const setupRuns = 15

// watchdog bounds a run: past it the process exits non-zero without a
// result.
const watchdog = 170 * time.Second

type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Bounds. On a 2-vCPU virtual machine the host's CPU steal drifts over
// minutes and moves every timing of consecutive runs together: time to AUC
// and closed-loop capacity spread by 0.03 to 0.26 of their median across
// consecutive seeds, so their bounds sit at the ceiling with set-up time. The open-loop p99
// amplifies that drift through queueing (4.2 to 9.1 ms across six
// consecutive runs whose own windows agreed within a fifth), beyond any
// bound a metric may have, so it is reported from the traced run instead.
// The live heap a collection finds depends on whether pooled scratch
// buffers are cached at that moment: serve-events reads 21.5, 24.4 or 25.1
// MB from run to run, hence a heap bound of a fifth.
var endToEndMetrics = []endToEnd{
	{"time_to_auc_s", "s", "lower", 0.25},
	{"auc", "ratio", "higher", 0.05},
	{"accuracy", "ratio", "higher", 0.05},
	{"peak_heap_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"serve_p50_ms", "ms", "lower", 0.20},
	{"serve_rps", "req/s", "higher", 0.25},
}

func perLayerMetrics() []perLayer {
	m := []perLayer{
		{"data.encode_s", "s", "lower"},
		{"data.transform_row_us", "us", "lower"},
		{"core.unsup_s", "s", "lower"},
		{"core.sup_s", "s", "lower"},
		{"core.calibrate_s", "s", "lower"},
		{"core.eval_s", "s", "lower"},
		{"core.unsup_self_s", "s", "lower"},
		{"core.sup_self_s", "s", "lower"},
		{"core.unattributed_s", "s", "lower"},
		{"core.swaps", "count", "lower"},
	}
	for _, g := range kernelGroups {
		m = append(m,
			perLayer{"backend." + g + ".calls", "count", "lower"},
			perLayer{"backend." + g + ".self_s", "s", "lower"},
			perLayer{"backend." + g + ".computed_bytes", "bytes", "lower"})
	}
	return append(m,
		perLayer{"tensor.active_block_frac", "ratio", "higher"},
		perLayer{"readout.train_s", "s", "lower"},
		perLayer{"readout.scores_s", "s", "lower"},
		perLayer{"readout.self_s", "s", "lower"},
		perLayer{"wire.encode_us", "us", "lower"},
		perLayer{"wire.decode_us", "us", "lower"},
		perLayer{"serve.avg_batch_events", "events", "higher"},
		perLayer{"serve.coalesced_frac", "ratio", "higher"},
		perLayer{"serve.forward_us", "us", "lower"},
		perLayer{"serve.http_queue_us", "us", "lower"},
		perLayer{"serve_p99_ms", "ms", "lower"},
		perLayer{"gen_late_p99_ms", "ms", "lower"},
		perLayer{"trace.overhead_s", "s", "lower"},
	)
}

// benchSpec is BENCHMARK.json; `perfbench -spec` prints it.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []endToEnd     `json:"end_to_end"`
	PerLayer   []perLayer     `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 20

func spec() benchSpec {
	s := benchSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics(),
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	return s
}
