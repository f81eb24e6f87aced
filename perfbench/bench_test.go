package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/tensor"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(30), Parent: 0},
		{Name: "b", Start: ms(20), End: ms(50), Parent: 0},  // overlaps a
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // runs past root
		{Name: "a1", Start: ms(15), End: ms(20), Parent: 1},
		{Name: "leaf", Start: ms(200), End: ms(207), Parent: -1},
	}
	got := selfTimes(spans)
	// root: 100 − ([10,50] ∪ [90,100]) = 50; a: 20 − 5; grandchildren do not
	// count against root.
	want := []time.Duration{ms(50), ms(15), ms(30), ms(30), ms(5), ms(7)}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestKernelStatsChargeReadoutCallers(t *testing.T) {
	spans := []span{
		{Name: spanSup, Start: ms(0), End: ms(10), Parent: -1},
		{Name: "OneHotMatMul", Start: ms(0), End: ms(2), Parent: 0, Kernel: true, Bytes: 100},
		{Name: spanReadoutTrain, Start: ms(2), End: ms(9), Parent: 0},
		{Name: "MatMul", Start: ms(3), End: ms(4), Parent: 2, Kernel: true, Bytes: 7},
		{Name: "AddBias", Start: ms(4), End: ms(6), Parent: 2, Kernel: true, Bytes: 5},
	}
	groups, kernels := kernelStats(spans, selfTimes(spans))
	if g := groups["gather"]; g.Calls != 1 || g.Bytes != 100 || g.Self != ms(2) {
		t.Errorf("gather = %+v", g)
	}
	if g := groups["readout_kernels"]; g.Calls != 2 || g.Bytes != 12 || g.Self != ms(3) {
		t.Errorf("readout_kernels = %+v", g)
	}
	if _, ok := groups["add_bias"]; ok {
		t.Error("readout's AddBias charged to add_bias")
	}
	if k := kernels["readout_kernels/MatMul"]; k.Calls != 1 {
		t.Errorf("readout_kernels/MatMul = %+v", k)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 50, 500, true},
		{1000, 99, 990, true}, // exactly 10 beyond
		{999, 99, 0, false},   // 9 beyond
		{1000, 99.9, 0, false},
		{20, 50, 10, true},
		{19, 50, 0, false},
		{1, 100, 1, true},
	} {
		got, err := percentile(s[:c.n], c.p)
		if (err == nil) != c.ok || (c.ok && got != c.want) {
			t.Errorf("p%g of %d: got %v, %v; want %v, ok=%v", c.p, c.n, got, err, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := schedule{start: t0, interval: 2500 * time.Microsecond}
	if got := s.due(4); got != t0.Add(ms(10)) {
		t.Fatalf("due(4) = %v", got.Sub(t0))
	}
	// A 7 ms stall in the generator: request 2 is sent at 12 ms and answered
	// 1 ms later. Its latency counts the stall.
	lat, late := openLoopTimes(s.due(2), t0.Add(ms(12)), t0.Add(ms(13)))
	if lat != ms(8) || late != ms(7) {
		t.Errorf("latency %v late %v, want 8ms 7ms", lat, late)
	}
}

func TestWrapperForwardsLayerStepper(t *testing.T) {
	for _, name := range backend.Names() {
		be := backend.MustNew(name, 1)
		_, inner := be.(backend.LayerStepper[float64])
		wrapped := wrapBackend(be, newRecorder())
		_, outer := wrapped.(backend.LayerStepper[float64])
		if inner != outer {
			t.Errorf("%s: LayerStepper %v, wrapped %v", name, inner, outer)
		}
		if wrapped.Name() != be.Name() || wrapped.Workers() != be.Workers() {
			t.Errorf("%s: wrapped reports %s/%d", name, wrapped.Name(), wrapped.Workers())
		}
	}
}

func TestWrappedKernelRecordsSpan(t *testing.T) {
	rec := newRecorder()
	be := wrapBackend(backend.MustNew("naive", 1), rec)
	w := tensor.NewMatrix(4, 3)
	dst := tensor.NewMatrix(2, 3)
	be.OneHotMatMul(dst, [][]int32{{0, 2}, {1, 3}}, w)
	spans := rec.take()
	if len(spans) != 1 || spans[0].Name != "OneHotMatMul" || !spans[0].Kernel || spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", spans)
	}
	// 4 indices, 4 gathered rows of 3 floats, 6 floats written.
	if want := int64(4*4 + 4*3*8 + 6*8); spans[0].Bytes != want {
		t.Errorf("bytes = %d, want %d", spans[0].Bytes, want)
	}
}

// TestTracingKeepsTheAnswer trains a small network on both a whole-layer and
// a composed backend with and without tracing; the answers must match bit
// for bit and the fused backend must still take its LayerStep path.
func TestTracingKeepsTheAnswer(t *testing.T) {
	for _, be := range []string{"fused", "parallel"} {
		w := workload{backend: be, events: 4000, mcus: 20, unsup: 1, sup: 1}
		raw := generate(&w, 3)
		plain, _ := w.train(raw, nil)
		traced, _ := w.train(raw, newRecorder())
		if plain == nil || traced == nil {
			t.Fatalf("%s: training failed", be)
		}
		if err := sameAnswer(be, plain, traced); err != nil {
			t.Error(err)
		}
		steps := analyse(traced.spans, 1).groups["layer_step"].Calls
		if (be == "fused") != (steps > 0) {
			t.Errorf("%s: %d LayerStep calls under tracing", be, steps)
		}
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(spec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(raw), want) {
		t.Error("BENCHMARK.json differs from `perfbench -spec`")
	}
	for _, m := range endToEndMetrics {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
}
