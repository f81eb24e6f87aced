// Command perfbench is the repository's end-to-end benchmark: it trains a
// BCPNN model from generated HIGGS events and serves it over loopback HTTP,
// checks every answer, and prints the metrics BENCHMARK.json names.
//
//	bash perfbench/run.sh --workload train-dense --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics untraced: time from raw
// events in memory to test AUC, the AUC and accuracy, peak Go heap, set-up
// time, open-loop latency at a fixed rate and closed-loop capacity. With
// --trace 1 it runs the same pipeline once untraced and twice with every
// layer's public interface wrapped in spans (the encoder, the four Network
// phases, each backend kernel, the readout and, on the serving side, a
// timing BackendFactory), and prints the per-layer metrics. The two traced
// runs must make identical kernel calls over identical computed bytes, and
// their AUC and accuracy must equal the untraced run's bit for bit.
//
// The fleet router, the mpi ranks and the streaming learner are not
// measured: on a 2-core machine they need more processes or connections
// than there are cores, so their timings would measure contention.
//
// `perfbench -spec` prints BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/serve"
)

func main() { os.Exit(run()) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
	peak    *heapPeak
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		secs    = flag.Int("seconds", runSeconds, "measuring time, 1..60")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced runs")
		out     = flag.String("out", ".bench_build", "directory for span files")
		doSpec  = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		workErr error
	)
	flag.Parse()
	if *doSpec {
		b, err := json.MarshalIndent(spec(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || *secs > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed N --seconds 1..60 --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d still running after %v\n", w.name, *seed, watchdog)
		os.Exit(3)
	})
	opt := options{seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1, out: *out,
		peak: startHeapPeak()}
	res := result{Metrics: map[string]metric{}}
	if opt.trace {
		workErr = w.traced(opt, &res)
	} else {
		workErr = w.untraced(opt, &res)
	}
	if heap := opt.peak.stop(); !opt.trace {
		res.put("peak_heap_mb", float64(heap)/(1<<20), "MB")
	}
	if workErr == nil {
		workErr = res.complete(opt.trace)
	}
	res.Correct = workErr == nil && res.Failed == 0
	if workErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, opt.seed, workErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

func (r *result) put(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// complete fails unless the result holds exactly the metrics BENCHMARK.json
// names for the mode, with their units, each a finite number.
func (r *result) complete(trace bool) error {
	want := map[string]string{}
	if trace {
		for _, m := range perLayerMetrics() {
			want[m.Name] = m.Unit
		}
	} else {
		for _, m := range endToEndMetrics {
			want[m.Name] = m.Unit
		}
	}
	for name, m := range r.Metrics {
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not in BENCHMARK.json", name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s = %v", name, m.Value)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%d metrics reported, BENCHMARK.json names %d", len(r.Metrics), len(want))
	}
	return nil
}

// untraced measures the end-to-end metrics.
func (w *workload) untraced(opt options, res *result) error {
	raw := generate(w, opt.seed)
	var setups []time.Duration
	for i := 0; !w.serveOnly() && i < setupRuns; i++ {
		d, err := w.timeSetup(raw.train.Features())
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}

	start := time.Now()
	var runs []*trainRun
	for len(runs) < w.minRuns() || time.Since(start) < time.Duration(w.trainShare*float64(opt.seconds)) {
		r, err := w.train(raw, nil)
		res.Attempted++
		if err != nil {
			return err
		}
		if len(runs) > 0 {
			if err := sameAnswer("repeat run at one seed", runs[0], r); err != nil {
				return err
			}
		}
		runs = append(runs, r)
		setups = append(setups, r.setup)
		opt.peak.note(r.live)
	}
	tta := make([]time.Duration, len(runs))
	for i, r := range runs {
		tta[i] = r.tta
	}
	fmt.Printf("%s seed %d: %d training runs, time to AUC %v, test AUC %.6f, accuracy %.6f\n",
		w.name, opt.seed, len(runs), tta, runs[0].auc, runs[0].acc)
	res.put("time_to_auc_s", median(seconds(tta)), "s")
	res.put("auc", runs[0].auc, "ratio")
	res.put("accuracy", runs[0].acc, "ratio")

	bundle, c, err := w.serving(raw, runs[0])
	if err != nil {
		return err
	}
	// Train workloads report the training set-up; serve-events, whose
	// training only makes its input, reports the server's.
	servers := 1
	if w.serveOnly() {
		servers, setups = setupRuns, setups[:0]
	}
	var ls *liveServer
	for i := 0; i < servers; i++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return err
			}
		}
		var d time.Duration
		ls, d, err = startServer(bundle, serve.NamedBackendFactory(w.backend, 0), c)
		res.Attempted++
		if err != nil {
			return err
		}
		if w.serveOnly() {
			setups = append(setups, d)
		}
	}
	defer ls.close()
	res.put("setup_s", median(seconds(setups)), "s")

	runtime.GC()
	open := openLoop(c, openRate, w.openCount(opt))
	res.Attempted += open.attempted
	res.Failed += open.failed
	if open.firstErr != nil {
		return fmt.Errorf("served answer: %w", open.firstErr)
	}
	p50, p99, err := open.percentiles()
	if err != nil {
		return err
	}
	var rps []float64
	for k := 0; k < windows; k++ {
		closed := closedLoop(c, time.Duration(w.closedShare*float64(opt.seconds))/windows)
		res.Attempted += closed.attempted
		res.Failed += closed.failed
		if closed.firstErr != nil {
			return fmt.Errorf("served answer: %w", closed.firstErr)
		}
		rps = append(rps, float64(closed.attempted)/closed.elapsed.Seconds())
	}
	fmt.Printf("open loop: %d requests at %d/s, p50 %.3f ms, p99 %.3f ms; closed loop: window req/s %.1f\n",
		open.attempted, openRate, p50*1e3, p99*1e3, rps)
	res.put("serve_p50_ms", p50*1e3, "ms")
	res.put("serve_rps", median(rps), "req/s")
	return nil
}

func (w *workload) openCount(opt options) int {
	return max(windows*windowMinReq, int(w.openShare*opt.seconds.Seconds()*openRate))
}

// serving prepares the serving inputs from a trained model: the bundle bytes
// and a client whose expected answers come from Bundle.Predict on a bundle
// decoded from the same bytes.
func (w *workload) serving(raw rawSplit, r *trainRun) ([]byte, *client, error) {
	var buf bytes.Buffer
	if err := serve.SaveBundle(&buf, r.net, r.enc); err != nil {
		return nil, nil, err
	}
	be, err := backend.New(w.backend, 0)
	if err != nil {
		return nil, nil, err
	}
	ref, err := serve.LoadBundle(bytes.NewReader(buf.Bytes()), be)
	if err != nil {
		return nil, nil, err
	}
	n := min(poolEvents, raw.test.Len())
	events := make([][]float64, n)
	for i := range events {
		events[i] = raw.test.X.Row(i)
	}
	c, err := newClient(events, ref)
	return buf.Bytes(), c, err
}

// traced measures the per-layer metrics: one untraced training run, two
// traced ones, then an open loop against a server whose backends are
// traced. The backend groups count the training pipeline's kernels; the
// serving kernels are summed into serve.forward_us.
func (w *workload) traced(opt options, res *result) error {
	raw := generate(w, opt.seed)
	base, err := w.train(raw, nil)
	res.Attempted++
	if err != nil {
		return err
	}
	var reports []traceReport
	var tta time.Duration
	for i := 0; i < 2; i++ {
		r, err := w.train(raw, newRecorder())
		res.Attempted++
		if err != nil {
			return err
		}
		if err := sameAnswer("traced run", base, r); err != nil {
			return err
		}
		rep := analyse(r.spans, raw.train.Len()+raw.test.Len())
		if i == 0 {
			if err := saveSpans(opt, w.name, r.spans); err != nil {
				return err
			}
		} else if err := sameWork(reports[0], rep); err != nil {
			return err
		}
		reports = append(reports, rep)
		tta += r.tta
		if i == 1 {
			// Structural state is identical across the runs (same answer),
			// so read it from the last one.
			res.put("core.swaps", float64(r.swaps), "count")
			res.put("tensor.active_block_frac", r.net.Hidden.Blocks().Density(), "ratio")
		}
	}
	tta /= 2
	mean := func(f func(traceReport) time.Duration) float64 {
		return (f(reports[0]) + f(reports[1])).Seconds() / 2
	}
	phase := func(name string) func(traceReport) time.Duration {
		return func(t traceReport) time.Duration { return t.phase[name] }
	}
	selfOf := func(name string) func(traceReport) time.Duration {
		return func(t traceReport) time.Duration { return t.self[name] }
	}
	encode := mean(traceReport.encode)
	res.put("data.encode_s", encode, "s")
	res.put("data.transform_row_us", mean(phase(spanEncodeApply))/float64(reports[0].rows)*1e6, "us")
	res.put("core.unsup_s", mean(phase(spanUnsup)), "s")
	res.put("core.sup_s", mean(phase(spanSup)), "s")
	res.put("core.calibrate_s", mean(phase(spanCalibrate)), "s")
	res.put("core.eval_s", mean(phase(spanEval)), "s")
	res.put("core.unsup_self_s", mean(selfOf(spanUnsup)), "s")
	res.put("core.sup_self_s", mean(selfOf(spanSup)), "s")
	unattributed := tta.Seconds() - mean(traceReport.attributed)
	res.put("core.unattributed_s", unattributed, "s")
	res.put("trace.overhead_s", tta.Seconds()-base.tta.Seconds(), "s")
	for _, g := range kernelGroups {
		res.put("backend."+g+".calls", float64(reports[0].groups[g].Calls), "count")
		res.put("backend."+g+".self_s", mean(func(t traceReport) time.Duration { return t.groups[g].Self }), "s")
		res.put("backend."+g+".computed_bytes", float64(reports[0].groups[g].Bytes), "bytes")
	}
	res.put("readout.train_s", mean(phase(spanReadoutTrain)), "s")
	res.put("readout.scores_s", mean(phase(spanReadoutScore)), "s")
	res.put("readout.self_s", mean(func(t traceReport) time.Duration { return t.readoutSelf }), "s")
	fmt.Printf("%s seed %d: traced time to AUC %.3fs = encode %.3f + unsup %.3f (self %.3f) + sup %.3f (self %.3f) "+
		"+ calibrate %.3f + eval %.3f + unattributed %.4f; untraced %.3fs, AUC %.6f in all three runs\n",
		w.name, opt.seed, tta.Seconds(), encode, mean(phase(spanUnsup)), mean(selfOf(spanUnsup)),
		mean(phase(spanSup)), mean(selfOf(spanSup)), mean(phase(spanCalibrate)), mean(phase(spanEval)),
		unattributed, base.tta.Seconds(), base.auc)

	bundle, c, err := w.serving(raw, base)
	if err != nil {
		return err
	}
	tf := &timingFactory{name: w.backend}
	ls, _, err := startServer(bundle, tf.factory(), c)
	res.Attempted++
	if err != nil {
		return err
	}
	defer ls.close()
	runtime.GC()
	before, err := c.stats()
	if err != nil {
		return err
	}
	tf.take()
	open := openLoop(c, openRate, w.openCount(opt))
	busy := tf.take()
	after, err := c.stats()
	if err != nil {
		return err
	}
	res.Attempted += open.attempted
	res.Failed += open.failed
	if open.firstErr != nil {
		return fmt.Errorf("served answer: %w", open.firstErr)
	}
	batches := float64(after.Batches - before.Batches)
	if batches == 0 {
		return errors.New("open loop ran no batches")
	}
	ok := float64(open.attempted - open.failed)
	forward := busy.Seconds() / batches
	res.put("wire.encode_us", open.encode.Seconds()/ok*1e6, "us")
	res.put("wire.decode_us", open.decode.Seconds()/ok*1e6, "us")
	res.put("serve.avg_batch_events", float64(after.Events-before.Events)/batches, "events")
	res.put("serve.coalesced_frac", float64(after.Coalesced-before.Coalesced)/batches, "ratio")
	res.put("serve.forward_us", forward*1e6, "us")
	res.put("serve.http_queue_us", (open.inFlight.Seconds()/ok-forward)*1e6, "us")
	_, p99, err := open.percentiles()
	if err != nil {
		return err
	}
	res.put("serve_p99_ms", p99*1e3, "ms")
	late := seconds(open.late)
	sort.Float64s(late)
	lateP99, err := percentile(late, 99)
	if err != nil {
		return err
	}
	res.put("gen_late_p99_ms", lateP99*1e3, "ms")
	return nil
}

func saveSpans(opt options, name string, spans []span) error {
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(opt.out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, opt.seed)))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapPeak tracks the largest live Go heap any GC cycle in the run found.
// A finalizer on a sentinel object runs once per cycle and re-arms itself,
// so tracking costs one runtime/metrics read per cycle; a sampling loop
// would wake on the training goroutines' cores and slow what it measures.
type heapPeak struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

type sentinel struct{ _ *int } // holds a pointer so the tiny allocator leaves it alone

func startHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	runtime.SetFinalizer(new(sentinel), func(*sentinel) {
		if h.read() {
			h.arm()
		}
	})
}

// read records the live heap of the last cycle and reports whether to keep
// tracking.
func (h *heapPeak) read() bool { return h.note(liveHeap()) }

// note records a live-heap figure taken elsewhere and reports whether to
// keep tracking.
func (h *heapPeak) note(live uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.peak = max(h.peak, live)
	return !h.stopped
}

// liveHeap returns the bytes the last completed GC cycle marked live.
func liveHeap() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// stop ends tracking after one last cycle and returns the peak in bytes.
func (h *heapPeak) stop() uint64 {
	runtime.GC()
	h.read()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return h.peak
}
