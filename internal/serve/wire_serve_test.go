package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"streambrain/internal/backend"
	"streambrain/internal/core"
	"streambrain/internal/obs/obstest"
	"streambrain/internal/serve/wire"
)

// postWire posts one binary request frame to url and returns the response.
func postWire(t *testing.T, url string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, wire.ContentType, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestWireHTTPEndToEnd drives the binary protocol through the real HTTP
// stack: encode a request frame, negotiate via Content-Type, decode the
// response frame, and match the in-process prediction plus the threshold
// metadata.
func TestWireHTTPEndToEnd(t *testing.T) {
	ts, srv, bundle, testDS, _ := newTestServer(t, false, ServerConfig{})
	events := rawRows(testDS, 16)
	wantPred, wantScore, err := bundle.Predict(events)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendRequest(nil, events, false)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postWire(t, ts.URL+"/v1/predict", frame)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("response Content-Type %q, want %q", ct, wire.ContentType)
	}
	out, err := wire.DecodeResponse(body)
	if err != nil {
		t.Fatalf("response frame: %v", err)
	}
	if out.Generation != 1 {
		t.Fatalf("generation %d, want 1", out.Generation)
	}
	if out.Threshold != bundle.Net.Threshold() {
		t.Fatalf("threshold %v, want %v", out.Threshold, bundle.Net.Threshold())
	}
	for i := range events {
		if out.Class[i] != wantPred[i] {
			t.Fatalf("event %d: wire class %d, in-process %d", i, out.Class[i], wantPred[i])
		}
		if math.Float64bits(out.Score[i]) != math.Float64bits(wantScore[i]) {
			t.Fatalf("event %d: wire score %v, in-process %v", i, out.Score[i], wantScore[i])
		}
	}

	// Identical request → byte-identical response: the wire encoding is
	// deterministic, which is what the committed golden frames rely on.
	resp2, body2 := postWire(t, ts.URL+"/v1/predict", frame)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("repeated request not byte-identical (%d)", resp2.StatusCode)
	}

	// The wire counters moved with the traffic.
	var st StatsResponse
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Wire.Requests != 2 || st.Wire.FrameErrors != 0 {
		t.Fatalf("wire stats %+v, want 2 requests / 0 errors", st.Wire)
	}
	if st.Wire.RequestBytes != uint64(2*len(frame)) || st.Wire.ResponseBytes != uint64(2*len(body)) {
		t.Fatalf("wire byte counters %+v (frame %d, resp %d)", st.Wire, len(frame), len(body))
	}
	_ = srv
}

// TestWireHTTPErrors maps malformed frames to HTTP statuses: errors are
// always JSON bodies (the failure path must stay debuggable), oversized
// frames get 413, and every rejection moves the frame-error counter.
func TestWireHTTPErrors(t *testing.T) {
	ts, _, bundle, testDS, _ := newTestServer(t, false, ServerConfig{})

	valid, err := wire.AppendRequest(nil, rawRows(testDS, 2), false)
	if err != nil {
		t.Fatal(err)
	}
	truncated := valid[:len(valid)-3]
	badVersion := append([]byte(nil), valid...)
	badVersion[4] = 99
	hostile := append([]byte(nil), valid...)
	hostile[0], hostile[1], hostile[2], hostile[3] = 0xff, 0xff, 0xff, 0xff
	wrongCols, err := wire.AppendRequest(nil, [][]float64{make([]float64, bundle.Features+1)}, false)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		frame  []byte
		status int
	}{
		{"truncated", truncated, http.StatusBadRequest},
		{"bad version", badVersion, http.StatusBadRequest},
		{"hostile length", hostile, http.StatusRequestEntityTooLarge},
		{"wrong feature width", wrongCols, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postWire(t, ts.URL+"/v1/predict", tc.frame)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("error Content-Type %q, want JSON", ct)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
				t.Fatalf("error body not a JSON error object: %s", body)
			}
		})
	}
	var st StatsResponse
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if st.Wire.FrameErrors != uint64(len(cases)) {
		t.Fatalf("frame-error counter %d, want %d", st.Wire.FrameErrors, len(cases))
	}
}

// newPrecisionTestServer boots a server over a float32-precision bundle.
func newPrecisionTestServer(t *testing.T) (*httptest.Server, [][]float64) {
	t.Helper()
	t.Cleanup(obstest.CheckLeaks(t))
	net, enc, events := trainPrecisionBundle(t)
	path := filepath.Join(t.TempDir(), "f32.bundle")
	if err := SaveBundleFile(path, net, enc); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(2, NamedBackendFactory("parallel", 2))
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, ServerConfig{}, path)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, events
}

// TestWireJSONEquivalence is the satellite property test: for the same
// bundle and the same rows, the JSON and binary paths must return identical
// predictions — bit-exact scores — across batch sizes 1/7/64 and both
// compute precisions. The f32 payload width is checked against JSON of the
// same values pre-rounded to float32, since that is the rounding the 4-byte
// frame applies.
func TestWireJSONEquivalence(t *testing.T) {
	type fixture struct {
		name   string
		url    string
		events [][]float64
	}
	var fixtures []fixture
	tsF64, _, _, testDS, _ := newTestServer(t, false, ServerConfig{})
	fixtures = append(fixtures, fixture{"f64-bundle", tsF64.URL, rawRows(testDS, 64)})
	tsF32, events32 := newPrecisionTestServer(t)
	fixtures = append(fixtures, fixture{"f32-bundle", tsF32.URL, events32})

	jsonPredict := func(t *testing.T, url string, rows [][]float64) []Prediction {
		t.Helper()
		resp, body := postJSON(t, url+"/v1/predict", PredictRequest{Events: rows})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("json status %d: %s", resp.StatusCode, body)
		}
		var pr PredictResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		return pr.Predictions
	}
	wirePredict := func(t *testing.T, url string, rows [][]float64, f32 bool) *wire.Response {
		t.Helper()
		frame, err := wire.AppendRequest(nil, rows, f32)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postWire(t, url+"/v1/predict", frame)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wire status %d: %s", resp.StatusCode, body)
		}
		out, err := wire.DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, fx := range fixtures {
		for _, batch := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/batch=%d", fx.name, batch), func(t *testing.T) {
				rows := fx.events[:batch]

				// 8-byte payload: bit-identical inputs, so predictions must
				// be bit-identical to JSON's.
				want := jsonPredict(t, fx.url, rows)
				got := wirePredict(t, fx.url, rows, false)
				for i := range rows {
					if got.Class[i] != want[i].Class {
						t.Fatalf("row %d: wire class %d, json %d", i, got.Class[i], want[i].Class)
					}
					if math.Float64bits(got.Score[i]) != math.Float64bits(want[i].SignalScore) {
						t.Fatalf("row %d: wire score bits %x, json %x", i,
							math.Float64bits(got.Score[i]), math.Float64bits(want[i].SignalScore))
					}
				}

				// 4-byte payload: the frame rounds features to float32, so
				// compare against JSON of the identically rounded rows.
				rows32 := make([][]float64, len(rows))
				for i, r := range rows {
					rows32[i] = make([]float64, len(r))
					for j, v := range r {
						rows32[i][j] = float64(float32(v))
					}
				}
				want32 := jsonPredict(t, fx.url, rows32)
				got32 := wirePredict(t, fx.url, rows, true)
				for i := range rows {
					if got32.Class[i] != want32[i].Class {
						t.Fatalf("row %d (f32): wire class %d, json %d", i, got32.Class[i], want32[i].Class)
					}
					if math.Float64bits(got32.Score[i]) != math.Float64bits(want32[i].SignalScore) {
						t.Fatalf("row %d (f32): wire score bits %x, json %x", i,
							math.Float64bits(got32.Score[i]), math.Float64bits(want32[i].SignalScore))
					}
				}
			})
		}
	}
}

// TestWireGoldenFrameAcrossPrecisions posts the same valid frame to an f64-
// and an f32-precision server and requires both to answer with parseable,
// repeat-stable response frames — the serve-level half of the golden-vector
// guarantee (the codec-level goldens live in the wire package testdata).
func TestWireGoldenFrameAcrossPrecisions(t *testing.T) {
	tsF64, _, _, testDS, _ := newTestServer(t, false, ServerConfig{})
	tsF32, events32 := newPrecisionTestServer(t)
	for _, fx := range []struct {
		name string
		url  string
		rows [][]float64
	}{
		{"f64", tsF64.URL, rawRows(testDS, 4)},
		{"f32", tsF32.URL, events32[:4]},
	} {
		t.Run(fx.name, func(t *testing.T) {
			frame, err := wire.AppendRequest(nil, fx.rows, false)
			if err != nil {
				t.Fatal(err)
			}
			resp1, body1 := postWire(t, fx.url+"/v1/predict", frame)
			resp2, body2 := postWire(t, fx.url+"/v1/predict", frame)
			if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
				t.Fatalf("status %d / %d", resp1.StatusCode, resp2.StatusCode)
			}
			if !bytes.Equal(body1, body2) {
				t.Fatalf("response frames differ across identical requests")
			}
			if _, err := wire.DecodeResponse(body1); err != nil {
				t.Fatalf("response frame: %v", err)
			}
		})
	}
}

// TestWireAllocsSteadyState is the satellite allocation-regression gate: the
// binary decode → pooled predict → encode path must stay at ≤ 2 allocs/op
// (target 0) once warm. The bundle runs on a workers=1 backend — the
// parallel kernels fall through to their serial, allocation-free forms — so
// any alloc measured here is the protocol's own.
func TestWireAllocsSteadyState(t *testing.T) {
	net, enc, testDS := trainTiny(t, false, 51)
	var buf bytes.Buffer
	if err := SaveBundle(&buf, net, enc); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(buf.Bytes()), backend.MustNew("parallel", 1))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendRequest(nil, rawRows(testDS, 64), false)
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	pred := make([]int, 64)
	score := make([]float64, 64)
	out := make([]byte, 0, 4096)
	step := func() {
		req, err := wire.DecodeRequest(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.PredictPooled(req.Rows, pred[:len(req.Rows)], score[:len(req.Rows)], &sc); err != nil {
			t.Fatal(err)
		}
		enc, err := wire.AppendResponse(out[:0], pred[:len(req.Rows)], score[:len(req.Rows)],
			b.Net.Threshold(), 1)
		if err != nil {
			t.Fatal(err)
		}
		out = enc[:0]
		req.Release()
	}
	step() // warm the pools
	n := testing.AllocsPerRun(50, step)
	if n > 2 {
		t.Fatalf("binary hot path makes %.1f allocs/op, want <= 2 (target 0)", n)
	}
	t.Logf("binary hot path: %.1f allocs/op", n)
}

// TestCorePredictIntoMatchesPredict pins the refactor: PredictInto with a
// reused scratch must return exactly what the allocating Predict does.
func TestCorePredictIntoMatchesPredict(t *testing.T) {
	net, enc, testDS := trainTiny(t, false, 61)
	encoded := enc.Transform(testDS)
	wantPred, wantScore := net.Predict(encoded)
	pred := make([]int, encoded.Len())
	score := make([]float64, encoded.Len())
	var sc core.PredictScratch
	net.PredictInto(encoded, pred, score, &sc)
	for i := range wantPred {
		if pred[i] != wantPred[i] || math.Float64bits(score[i]) != math.Float64bits(wantScore[i]) {
			t.Fatalf("row %d: PredictInto (%d, %v) != Predict (%d, %v)",
				i, pred[i], score[i], wantPred[i], wantScore[i])
		}
	}
	// Second call through the same scratch must still agree (stale-state
	// check on the reused buffers).
	net.PredictInto(encoded, pred, score, &sc)
	for i := range wantPred {
		if pred[i] != wantPred[i] {
			t.Fatalf("row %d drifted on scratch reuse", i)
		}
	}
}

// TestPredictPooledAllocsOnWorkerTeam: on a 2-worker parallel backend, the
// serving batch sizes below every kernel's sharding minimum run their
// kernels inline, so the pooled predict path stays allocation-free at 1, 2
// and 3 events — no goroutine or closure per kernel for a tiny batch.
func TestPredictPooledAllocsOnWorkerTeam(t *testing.T) {
	net, enc, testDS := trainTiny(t, false, 52)
	var buf bytes.Buffer
	if err := SaveBundle(&buf, net, enc); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBundle(bytes.NewReader(buf.Bytes()), backend.MustNew("parallel", 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, events := range []int{1, 2, 3} {
		rows := rawRows(testDS, events)
		var sc Scratch
		pred := make([]int, events)
		score := make([]float64, events)
		step := func() {
			if _, err := b.PredictPooled(rows, pred, score, &sc); err != nil {
				t.Fatal(err)
			}
		}
		step() // warm the scratch
		if n := testing.AllocsPerRun(50, step); n != 0 {
			t.Errorf("%d-event batch: %.1f allocs/op, want 0", events, n)
		}
	}
}
