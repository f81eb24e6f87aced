package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/tensor"
)

// Span names the benchmark records around the public interface of each
// layer. Kernel spans are named after the backend method they wrap.
const (
	spanEncodeFit    = "data.fit"
	spanEncodeApply  = "data.transform"
	spanUnsup        = "core.unsup"
	spanSup          = "core.sup"
	spanCalibrate    = "core.calibrate"
	spanEval         = "core.eval"
	spanReadoutTrain = "readout.train"
	spanReadoutScore = "readout.scores"
)

// kernelGroups are the backend kernel groups the per-layer report names, in
// report order. Kernels called from inside a readout span are charged to
// readout_kernels whatever their name, so the hidden layer's forward and the
// classifier's are told apart.
var kernelGroups = []string{"layer_step", "gather", "add_bias", "softmax", "trace", "weights", "readout_kernels"}

var kernelGroupOf = map[string]string{
	"LayerStep":             "layer_step",
	"OneHotMatMul":          "gather",
	"OneHotMatMulSparse":    "gather",
	"MatMul":                "gather",
	"MatMulATB":             "gather",
	"AddBias":               "add_bias",
	"SoftmaxGroups":         "softmax",
	"Lerp":                  "trace",
	"LerpMatrix":            "trace",
	"OneHotMeanLerp":        "trace",
	"OneHotOuterLerp":       "trace",
	"OneHotOuterLerpSparse": "trace",
	"OuterLerp":             "trace",
	"UpdateWeights":         "weights",
	"UpdateWeightsSparse":   "weights",
	"UpdateBias":            "weights",
}

// span is one recorded interval. Times are offsets from the recorder's
// origin; parent is the index of the span open when this one began (-1 at
// the root). bytes is the kernel's computed traffic: every operand read or
// written once, from tensor sizes — not a hardware measurement.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Kernel bool          `json:"kernel,omitempty"`
	Bytes  int64         `json:"bytes,omitempty"`
}

// recorder keeps spans in memory. Spans nest through a stack of open spans,
// so one recorder serves one goroutine's calls at a time — the training loop,
// or one serving replica (the serve registry drives each replica serially).
// The mutex only orders those calls with the reader.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its handle.
func (r *recorder) begin(name string, kernel bool) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Kernel: kernel})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int, bytes int64) {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.open); n == 0 || r.open[n-1] != i {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", i))
	}
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = now
	r.spans[i].Bytes = bytes
}

// take returns the recorded spans and starts an empty record.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval its
// direct children cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	type interval struct{ lo, hi time.Duration }
	var ivs []interval
	for i, s := range spans {
		ivs = ivs[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		for _, iv := range ivs {
			if iv.lo > reach {
				reach = iv.lo
			}
			if iv.hi > reach {
				covered += iv.hi - reach
				reach = iv.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// kernelStat aggregates kernel spans.
type kernelStat struct {
	Calls int
	Self  time.Duration
	Bytes int64
}

// kernelKey is the group a kernel span is charged to, plus its name.
func kernelKey(spans []span, i int) (group, name string) {
	s := spans[i]
	if p := s.Parent; p >= 0 && (spans[p].Name == spanReadoutTrain || spans[p].Name == spanReadoutScore) {
		return "readout_kernels", s.Name
	}
	return kernelGroupOf[s.Name], s.Name
}

// kernelStats sums kernel spans by group and by group/kernel name.
func kernelStats(spans []span, self []time.Duration) (byGroup, byKernel map[string]kernelStat) {
	byGroup, byKernel = map[string]kernelStat{}, map[string]kernelStat{}
	add := func(m map[string]kernelStat, key string, i int) {
		st := m[key]
		st.Calls++
		st.Self += self[i]
		st.Bytes += spans[i].Bytes
		m[key] = st
	}
	for i, s := range spans {
		if !s.Kernel {
			continue
		}
		g, name := kernelKey(spans, i)
		add(byGroup, g, i)
		add(byKernel, g+"/"+name, i)
	}
	return byGroup, byKernel
}

// wrapBackend returns be with every kernel call recorded as a span. The
// result implements backend.LayerStepper[float64] exactly when be does, so a
// whole-layer backend keeps its fused dispatch under tracing.
func wrapBackend(be backend.Backend, rec *recorder) backend.Backend {
	tb := &tracedBackend{Backend: be, rec: rec}
	if st, ok := be.(backend.LayerStepper[float64]); ok {
		return &tracedStepper{tracedBackend: tb, step: st}
	}
	return tb
}

type tracedBackend struct {
	backend.Backend
	rec *recorder
}

type tracedStepper struct {
	*tracedBackend
	step backend.LayerStepper[float64]
}

const f64 = 8 // bytes per float64 element

func matBytes(m *tensor.Matrix) int64 { return f64 * int64(len(m.Data)) }

func vecBytes(v []float64) int64 { return f64 * int64(len(v)) }

func idxBytes(idx [][]int32) int64 {
	n := 0
	for _, row := range idx {
		n += len(row)
	}
	return 4 * int64(n)
}

// gatherBytes is the weight traffic of a one-hot gather: every active input
// unit of every sample pulls its row of w, restricted to active blocks when
// bi is given.
func gatherBytes(idx [][]int32, cols int, bi *tensor.BlockIndex) int64 {
	if bi != nil {
		return f64 * int64(len(idx)) * int64(bi.ActiveBlocks()) * int64(bi.M)
	}
	return f64 * (idxBytes(idx) / 4) * int64(cols)
}

func (t *tracedBackend) MatMul(dst, a, b *tensor.Matrix) {
	s := t.rec.begin("MatMul", true)
	t.Backend.MatMul(dst, a, b)
	t.rec.end(s, matBytes(dst)+matBytes(a)+matBytes(b))
}

func (t *tracedBackend) MatMulATB(dst, a, b *tensor.Matrix) {
	s := t.rec.begin("MatMulATB", true)
	t.Backend.MatMulATB(dst, a, b)
	t.rec.end(s, matBytes(dst)+matBytes(a)+matBytes(b))
}

func (t *tracedBackend) OneHotMatMul(dst *tensor.Matrix, idx [][]int32, w *tensor.Matrix) {
	s := t.rec.begin("OneHotMatMul", true)
	t.Backend.OneHotMatMul(dst, idx, w)
	t.rec.end(s, idxBytes(idx)+gatherBytes(idx, dst.Cols, nil)+matBytes(dst))
}

func (t *tracedBackend) AddBias(m *tensor.Matrix, bias []float64) {
	s := t.rec.begin("AddBias", true)
	t.Backend.AddBias(m, bias)
	t.rec.end(s, 2*matBytes(m)+vecBytes(bias))
}

func (t *tracedBackend) SoftmaxGroups(m *tensor.Matrix, groups, width int, temperature float64) {
	s := t.rec.begin("SoftmaxGroups", true)
	t.Backend.SoftmaxGroups(m, groups, width, temperature)
	t.rec.end(s, 2*matBytes(m))
}

func (t *tracedBackend) Lerp(dst, src []float64, r float64) {
	s := t.rec.begin("Lerp", true)
	t.Backend.Lerp(dst, src, r)
	t.rec.end(s, 2*vecBytes(dst)+vecBytes(src))
}

func (t *tracedBackend) LerpMatrix(dst, src *tensor.Matrix, r float64) {
	s := t.rec.begin("LerpMatrix", true)
	t.Backend.LerpMatrix(dst, src, r)
	t.rec.end(s, 2*matBytes(dst)+matBytes(src))
}

func (t *tracedBackend) OneHotMeanLerp(ci []float64, idx [][]int32, r float64) {
	s := t.rec.begin("OneHotMeanLerp", true)
	t.Backend.OneHotMeanLerp(ci, idx, r)
	t.rec.end(s, 2*vecBytes(ci)+idxBytes(idx))
}

func (t *tracedBackend) OneHotOuterLerp(cij *tensor.Matrix, idx [][]int32, act *tensor.Matrix, r float64) {
	s := t.rec.begin("OneHotOuterLerp", true)
	t.Backend.OneHotOuterLerp(cij, idx, act, r)
	t.rec.end(s, 2*matBytes(cij)+matBytes(act)+idxBytes(idx))
}

func (t *tracedBackend) OuterLerp(cij, a, b *tensor.Matrix, r float64) {
	s := t.rec.begin("OuterLerp", true)
	t.Backend.OuterLerp(cij, a, b, r)
	t.rec.end(s, 2*matBytes(cij)+matBytes(a)+matBytes(b))
}

func (t *tracedBackend) UpdateWeights(w *tensor.Matrix, ci, cj []float64, cij *tensor.Matrix,
	mask []bool, fi, mi, h, m int, eps float64) {
	s := t.rec.begin("UpdateWeights", true)
	t.Backend.UpdateWeights(w, ci, cj, cij, mask, fi, mi, h, m, eps)
	t.rec.end(s, matBytes(w)+matBytes(cij)+vecBytes(ci)+vecBytes(cj)+int64(len(mask)))
}

func (t *tracedBackend) UpdateBias(bias, kbi, cj []float64, eps float64) {
	s := t.rec.begin("UpdateBias", true)
	t.Backend.UpdateBias(bias, kbi, cj, eps)
	t.rec.end(s, vecBytes(bias)+vecBytes(kbi)+vecBytes(cj))
}

func (t *tracedBackend) OneHotMatMulSparse(dst *tensor.Matrix, idx [][]int32, w *tensor.Matrix, bi *tensor.BlockIndex) {
	s := t.rec.begin("OneHotMatMulSparse", true)
	t.Backend.OneHotMatMulSparse(dst, idx, w, bi)
	t.rec.end(s, idxBytes(idx)+gatherBytes(idx, dst.Cols, bi)+matBytes(dst))
}

func (t *tracedBackend) OneHotOuterLerpSparse(cij *tensor.Matrix, idx [][]int32, act *tensor.Matrix,
	r float64, bi *tensor.BlockIndex) {
	s := t.rec.begin("OneHotOuterLerpSparse", true)
	t.Backend.OneHotOuterLerpSparse(cij, idx, act, r, bi)
	t.rec.end(s, 2*f64*bi.ActiveElems()+matBytes(act)+idxBytes(idx))
}

func (t *tracedBackend) UpdateWeightsSparse(w *tensor.Matrix, ci, cj []float64, cij *tensor.Matrix,
	bi *tensor.BlockIndex, eps float64) {
	s := t.rec.begin("UpdateWeightsSparse", true)
	t.Backend.UpdateWeightsSparse(w, ci, cj, cij, bi, eps)
	t.rec.end(s, 2*f64*bi.ActiveElems()+vecBytes(ci)+vecBytes(cj))
}

func (t *tracedStepper) LayerStep(idx [][]int32, act *tensor.Matrix, ci, cj []float64, cij, w *tensor.Matrix,
	bias []float64, mask []bool, geom backend.LayerGeom, hyper backend.LayerHyper[float64]) {
	s := t.rec.begin("LayerStep", true)
	t.step.LayerStep(idx, act, ci, cj, cij, w, bias, mask, geom, hyper)
	elems := int64(len(cij.Data))
	if hyper.Blocks != nil {
		elems = hyper.Blocks.ActiveElems()
	}
	// Forward gather and activations, then Cij read+write and W written
	// once over the touched elements, plus the per-unit vectors.
	t.rec.end(s, idxBytes(idx)+gatherBytes(idx, act.Cols, hyper.Blocks)+matBytes(act)+
		3*f64*elems+2*vecBytes(ci)+2*vecBytes(cj)+vecBytes(bias)+2*vecBytes(hyper.Kbi)+
		vecBytes(hyper.Noise)+int64(len(mask)))
}

// tracedReadout records each call into the classification head.
type tracedReadout struct {
	core.Readout
	rec *recorder
}

func (t *tracedReadout) TrainBatch(act *tensor.Matrix, labels []int) {
	s := t.rec.begin(spanReadoutTrain, false)
	t.Readout.TrainBatch(act, labels)
	t.rec.end(s, 0)
}

func (t *tracedReadout) Scores(act, out *tensor.Matrix) {
	s := t.rec.begin(spanReadoutScore, false)
	t.Readout.Scores(act, out)
	t.rec.end(s, 0)
}
