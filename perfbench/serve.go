package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"streambrain/internal/backend"
	"streambrain/internal/serve"
	"streambrain/internal/serve/wire"
)

// client sends single-event predicts over loopback and checks each answer
// against Bundle.Predict for the same event. Even-numbered requests use
// binary frames, odd-numbered ones JSON bodies.
type client struct {
	http   *http.Client
	url    string
	events [][]float64
	score  []float64 // Bundle.Predict signal score per event
	class  []int
}

func newClient(events [][]float64, b *serve.Bundle) (*client, error) {
	c := &client{
		http: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
			Timeout:   10 * time.Second,
		},
		events: events,
		score:  make([]float64, len(events)),
		class:  make([]int, len(events)),
	}
	for i, ev := range events {
		pred, score, err := b.Predict([][]float64{ev})
		if err != nil {
			return nil, err
		}
		c.class[i], c.score[i] = pred[0], score[0]
	}
	return c, nil
}

// exchange is one request's client-side timeline: encode starts at begin,
// the request is sent at sent, the body has arrived at received, and the
// answer is decoded at done.
type exchange struct {
	begin, sent, received, done time.Time
}

func (c *client) predict(i int) (exchange, error) {
	var x exchange
	ev := i % len(c.events)
	binary := i%2 == 0
	x.begin = time.Now()
	var body []byte
	var err error
	ctype := "application/json"
	if binary {
		body, err = wire.AppendRequest(nil, [][]float64{c.events[ev]}, false)
		ctype = wire.ContentType
	} else {
		body, err = json.Marshal(serve.PredictRequest{Events: [][]float64{c.events[ev]}})
	}
	if err != nil {
		return x, err
	}
	x.sent = time.Now()
	resp, err := c.http.Post(c.url+"/v1/predict", ctype, bytes.NewReader(body))
	if err != nil {
		return x, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	x.received = time.Now()
	if err != nil {
		return x, err
	}
	if resp.StatusCode != http.StatusOK {
		return x, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	var class int
	var score float64
	if binary {
		r, err := wire.DecodeResponse(raw)
		if err != nil {
			return x, err
		}
		if len(r.Score) != 1 {
			return x, fmt.Errorf("binary answer has %d rows", len(r.Score))
		}
		class, score = r.Class[0], r.Score[0]
	} else {
		var r serve.PredictResponse
		if err := json.Unmarshal(raw, &r); err != nil {
			return x, err
		}
		if len(r.Predictions) != 1 {
			return x, fmt.Errorf("JSON answer has %d predictions", len(r.Predictions))
		}
		class, score = r.Predictions[0].Class, r.Predictions[0].SignalScore
	}
	x.done = time.Now()
	if math.Float64bits(score) != math.Float64bits(c.score[ev]) || class != c.class[ev] {
		return x, fmt.Errorf("event %d (binary=%v): served class %d score %v, Bundle.Predict gives %d %v",
			ev, binary, class, score, c.class[ev], c.score[ev])
	}
	return x, nil
}

func (c *client) stats() (serve.StatsResponse, error) {
	var s serve.StatsResponse
	resp, err := c.http.Get(c.url + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// liveServer is a serve.Server on a loopback listener.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
}

// startServer loads the bundle into a fresh registry, starts the server and
// waits for the first answered predict; the returned duration is that whole
// set-up.
func startServer(bundle []byte, factory serve.BackendFactory, c *client) (*liveServer, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	reg := serve.NewRegistry(max(1, runtime.GOMAXPROCS(0)/2), factory)
	if err := reg.LoadBytes(bundle, "perfbench", time.Now()); err != nil {
		return nil, 0, err
	}
	srv := serve.NewServer(reg, serve.ServerConfig{}, "")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	c.url = "http://" + ln.Addr().String()
	if _, err := c.predict(0); err != nil {
		ls.close()
		return nil, 0, fmt.Errorf("first predict: %w", err)
	}
	return ls, time.Since(start), nil
}

func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.srv.Close()
	return err
}

// loopResult holds what a load loop measured.
type loopResult struct {
	attempted, failed int
	firstErr          error
	latency           []time.Duration // open loop, by request: from due time to decoded answer
	late              []time.Duration // open loop, by request: send time behind schedule
	encode, decode    time.Duration   // summed client-side codec time
	inFlight          time.Duration   // summed send → body received
	elapsed           time.Duration   // closed loop
}

func (l *loopResult) record(x exchange, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	l.encode += x.sent.Sub(x.begin)
	l.decode += x.done.Sub(x.received)
	l.inFlight += x.received.Sub(x.sent)
}

// openLoop sends n requests on a fixed schedule regardless of answers, as
// independent users would. A failed request counts as missing any latency
// limit: its latency is the largest duration.
func openLoop(c *client, rate float64, n int) loopResult {
	var mu sync.Mutex
	res := loopResult{latency: make([]time.Duration, n), late: make([]time.Duration, n)}
	sched := schedule{start: time.Now().Add(5 * time.Millisecond), interval: time.Duration(float64(time.Second) / rate)}
	// In-flight cap: far above the rate × latency product at the fixed
	// rate; reaching it makes the generator late, which is reported.
	sem := make(chan struct{}, 256)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := sched.due(i)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			x, err := c.predict(i)
			mu.Lock()
			defer mu.Unlock()
			res.record(x, err)
			res.latency[i], res.late[i] = openLoopTimes(due, x.begin, x.done)
			if err != nil {
				res.latency[i] = time.Duration(math.MaxInt64)
			}
		}(i, due)
	}
	wg.Wait()
	return res
}

// percentiles returns the open loop's median latency and the median over
// its windows of each window's p99, in seconds.
func (l loopResult) percentiles() (p50, p99 float64, err error) {
	all := seconds(l.latency)
	sort.Float64s(all)
	if p50, err = percentile(all, 50); err != nil {
		return 0, 0, err
	}
	n := len(l.latency)
	var p99s []float64
	for k := 0; k < windows; k++ {
		win := seconds(l.latency[k*n/windows : (k+1)*n/windows])
		sort.Float64s(win)
		p, err := percentile(win, 99)
		if err != nil {
			return 0, 0, err
		}
		p99s = append(p99s, p)
	}
	return p50, median(p99s), nil
}

// closedLoop runs `clients` callers that each send the next request as soon
// as the previous one is answered, for d.
func closedLoop(c *client, d time.Duration) loopResult {
	var mu sync.Mutex
	res := loopResult{}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; time.Now().Before(deadline); i += clients {
				x, err := c.predict(i)
				mu.Lock()
				res.record(x, err)
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// timingFactory builds serving backends whose kernel calls are recorded, one
// recorder per replica.
type timingFactory struct {
	name string
	mu   sync.Mutex
	recs []*recorder
}

func (f *timingFactory) factory() serve.BackendFactory {
	return func() (backend.Backend, error) {
		be, err := backend.New(f.name, 0)
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		f.mu.Lock()
		f.recs = append(f.recs, rec)
		f.mu.Unlock()
		return wrapBackend(be, rec), nil
	}
}

// take drains every replica's spans and returns the summed kernel time.
func (f *timingFactory) take() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	var busy time.Duration
	for _, rec := range f.recs {
		for _, s := range rec.take() {
			if s.Parent < 0 {
				busy += s.End - s.Start
			}
		}
	}
	return busy
}
