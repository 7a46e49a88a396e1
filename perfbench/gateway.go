package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"rnascale/internal/core"
	"rnascale/internal/gateway"
	"rnascale/internal/journal"
	"rnascale/internal/obs/perf"
	"rnascale/internal/simdata"
)

const (
	// gatewayClients is both the closed-loop client count and the
	// gateway's worker count: one per CPU of the 2-CPU reference host.
	gatewayClients = 2
	// pollInterval spaces a client's status polls while its run is in
	// flight.
	pollInterval = 5 * time.Millisecond
	// cycleTimeout bounds one submit-to-terminal wait, and each request.
	cycleTimeout = 20 * time.Second
	// predictReps is how many times the traced run times core.Predict.
	predictReps = 20
)

// gatewayConfig is the pipeline configuration the gateway builds for
// the workload's request: the default S2/dynamic config, ray only.
func gatewayConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Assemblers = []string{"ray"}
	return cfg
}

// gatewayEnv is one journaled gateway served on loopback.
type gatewayEnv struct {
	srv    *gateway.Server
	hs     *http.Server
	served chan error
	dir    string
	base   string
	ds     *simdata.Dataset // the benchmark's own copy of the tiny dataset
	gen    time.Duration    // how long generating ds took
	plan   core.Plan        // the planner's price for the request
}

// startGateway is the workload's set-up: generate the dataset and
// price the request (for feasible budgets), start the server with its
// journal on a fresh directory, and listen on loopback.
func startGateway() (*gatewayEnv, error) {
	t0 := time.Now()
	ds, err := simdata.Generate(simdata.Tiny())
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0)
	plan, err := core.Predict(ds, gatewayConfig())
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "gateway-")
	if err != nil {
		return nil, err
	}
	srv := gateway.NewServer(gatewayClients)
	if err := srv.EnableJournal(dir); err != nil {
		return nil, errors.Join(err, srv.Close(), os.RemoveAll(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close(), os.RemoveAll(dir))
	}
	g := &gatewayEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		dir:    dir,
		base:   "http://" + ln.Addr().String(),
		ds:     ds,
		gen:    gen,
		plan:   plan,
	}
	go func() { g.served <- g.hs.Serve(ln) }()
	return g, nil
}

// stop shuts the listener and the server down, waits for both, and
// removes the journal directory.
func (g *gatewayEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.hs.Shutdown(ctx)
	if serr := <-g.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, g.srv.Close(), os.RemoveAll(g.dir))
}

// setupGateway runs the set-up setupReps times and keeps the last
// gateway, returning each set-up's wall time and each dataset
// generation's within it.
func setupGateway() (g *gatewayEnv, secs, gens []float64, err error) {
	for i := 0; i < setupReps; i++ {
		if g != nil {
			if err := g.stop(); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		if g, err = startGateway(); err != nil {
			return nil, nil, nil, fmt.Errorf("start gateway: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		gens = append(gens, g.gen.Seconds())
	}
	return g, secs, gens, nil
}

// requestSource hands out the workload's requests in a sequence fixed
// by the seed: tiny ray-only runs whose deadline and cost budget sit
// 1.5–2.5× above the planner's prediction, so admission prices every
// run with core.Predict and admits it.
func requestSource(seed int64, plan core.Plan) func() gateway.RunRequest {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func() gateway.RunRequest {
		mu.Lock()
		defer mu.Unlock()
		return gateway.RunRequest{
			Profile:         "tiny",
			Assemblers:      []string{"ray"},
			DeadlineSeconds: plan.TTC.Seconds() * (1.5 + rng.Float64()),
			MaxCostUSD:      plan.CostUSD * (1.5 + rng.Float64()),
			Priority:        rng.Intn(3),
		}
	}
}

// client is one closed-loop client with its own connection.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder // nil when untraced
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// cycleTimes are one successful cycle's latencies.
type cycleTimes struct {
	submit, run, wall time.Duration
	reads             map[string]time.Duration // by span name
}

// timed runs fn inside a span named for the layer call (when traced)
// and returns its wall time.
func (c *client) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := -1
	if c.rec != nil {
		id = c.rec.begin(name, parent, nil)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if id >= 0 {
		c.rec.end(id)
	}
	return d, err
}

// cycle submits one run, polls it to a terminal status, then reads its
// trace, proof and transcripts.
func (c *client) cycle(rr gateway.RunRequest) (cr cycleResult, ct cycleTimes) {
	ct.reads = map[string]time.Duration{}
	root := -1
	if c.rec != nil {
		root = c.rec.begin("gateway.cycle", -1, nil)
		defer c.rec.end(root)
	}
	t0 := time.Now()
	body, err := json.Marshal(rr)
	if err != nil {
		cr.Err = err
		return cr, ct
	}
	ct.submit, cr.Err = c.timed("gateway.submit", root, func() error {
		status, b, err := c.do(http.MethodPost, "/api/runs", body)
		cr.SubmitStatus = status
		if err != nil || status != http.StatusAccepted {
			return err
		}
		return json.Unmarshal(b, &cr.View)
	})
	if cr.Err != nil || cr.SubmitStatus != http.StatusAccepted {
		return cr, ct
	}
	_, cr.Err = c.timed("gateway.run_wait", root, func() error {
		for cr.View.Status == gateway.StatusQueued || cr.View.Status == gateway.StatusRunning {
			if time.Since(t0) > cycleTimeout {
				return fmt.Errorf("run %s still %s after %v", cr.View.ID, cr.View.Status, cycleTimeout)
			}
			time.Sleep(pollInterval)
			status, b, err := c.do(http.MethodGet, "/api/runs/"+cr.View.ID, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("answered %d", status)
			}
			if err == nil {
				err = json.Unmarshal(b, &cr.View)
			}
			if err != nil {
				return fmt.Errorf("poll %s: %w", cr.View.ID, err)
			}
		}
		return nil
	})
	ct.run = time.Since(t0)
	if cr.Err != nil || cr.View.Status != gateway.StatusDone {
		return cr, ct
	}
	for _, rd := range []struct{ span, resource string }{
		{"gateway.trace", "trace"}, {"gateway.proof", "proof"}, {"gateway.transcripts", "transcripts"},
	} {
		var status int
		var b []byte
		d, err := c.timed(rd.span, root, func() (err error) {
			status, b, err = c.do(http.MethodGet, "/api/runs/"+cr.View.ID+"/"+rd.resource, nil)
			return err
		})
		ct.reads[rd.span] = d
		switch {
		case err != nil:
			cr.Err = err
			return cr, ct
		case rd.resource == "proof":
			// checkCycle judges the proof's status and body.
			cr.ProofStatus, cr.Proof = status, b
		case status != http.StatusOK:
			cr.Err = fmt.Errorf("%s answered %d", rd.resource, status)
			return cr, ct
		case rd.resource == "transcripts":
			cr.FASTA = b
		}
	}
	ct.wall = time.Since(t0)
	return cr, ct
}

// gatewayPass is one closed-loop load window.
type gatewayPass struct {
	cycles            []cycleTimes // checked-correct cycles
	ids               []string     // their run ids
	attempted, failed int
	elapsed, cpu      time.Duration
}

// loadPass drives gatewayClients closed-loop clients against g for the
// window: each starts a new cycle until the window is spent, and every
// cycle is checked.
func loadPass(o opts, g *gatewayEnv, want pin, rec *recorder) gatewayPass {
	next := requestSource(o.seed, g.plan)
	var p gatewayPass
	var first *cycleResult
	var mu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	u0 := rusage()
	start := time.Now()
	for i := 0; i < gatewayClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			defer tr.CloseIdleConnections()
			c := &client{base: g.base, hc: &http.Client{Transport: tr, Timeout: cycleTimeout}, rec: rec}
			for time.Since(start) < o.window {
				cr, ct := c.cycle(next())
				err := checkCycle(want, cr)
				mu.Lock()
				if first == nil {
					first = &cr
				}
				p.attempted++
				if err != nil {
					p.failed++
					errs = append(errs, err)
				} else {
					p.cycles = append(p.cycles, ct)
					p.ids = append(p.ids, cr.View.ID)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.cpu = rusage().CPU - u0.CPU
	if first != nil {
		o.logf("first run %s: %s", first.View.ID, first.outcome())
	}
	for i, err := range errs {
		if i == 5 {
			o.logf("... and %d more failures", len(errs)-i)
			break
		}
		o.logf("FAILED: %v", err)
	}
	return p
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// pick collects one latency from every cycle.
func (p gatewayPass) pick(f func(cycleTimes) []time.Duration) []float64 {
	var out []time.Duration
	for _, c := range p.cycles {
		out = append(out, f(c)...)
	}
	return seconds(out)
}

func (p gatewayPass) walls() []float64 {
	return p.pick(func(c cycleTimes) []time.Duration { return []time.Duration{c.wall} })
}

// runGatewayWorkload is the plain measurement.
func runGatewayWorkload(o opts, want pin) (*result, error) {
	g, setup, _, err := setupGateway()
	if err != nil {
		return nil, err
	}
	p := loadPass(o, g, want, nil)
	res := newResult()
	res.attempted, res.failed = p.attempted, p.failed
	if err := g.stop(); err != nil {
		res.fail(o, fmt.Errorf("stop gateway: %w", err))
	}
	n := len(p.cycles)
	o.logf("%d runs in %.2fs, %d failed", n, p.elapsed.Seconds(), p.failed)
	if n == 0 {
		return res, nil
	}
	runs := p.pick(func(c cycleTimes) []time.Duration { return []time.Duration{c.run} })
	reads := p.pick(func(c cycleTimes) []time.Duration {
		return []time.Duration{c.reads["gateway.trace"], c.reads["gateway.proof"], c.reads["gateway.transcripts"]}
	})
	res.set("setup_s", median(setup))
	res.set("wall_s", median(p.walls()))
	res.set("cpu_s", p.cpu.Seconds()/float64(n))
	res.set("peak_rss_mb", float64(rusage().MaxRSSB)/1e6)
	res.set("runs_per_s", float64(n)/p.elapsed.Seconds())
	res.set("run_latency_p50_s", median(runs))
	res.set("run_latency_p90_s", percentile(runs, 90))
	res.set("read_latency_p50_s", median(reads))
	res.set("read_latency_p90_s", percentile(reads, 90))
	return res, nil
}

// runGatewayTraced runs a plain load window for reference, then a
// traced one on a fresh gateway with spans around every client call
// and the perf probes on; afterwards it reads the server's queue-wait
// histogram, verifies every finished run's journal and times the
// admission planner.
func runGatewayTraced(o opts, want pin) (*result, error) {
	res := newResult()
	g, _, _, err := setupGateway()
	if err != nil {
		return nil, err
	}
	plain := loadPass(o, g, want, nil)
	res.attempted, res.failed = plain.attempted, plain.failed
	if err := g.stop(); err != nil {
		res.fail(o, fmt.Errorf("stop gateway: %w", err))
	}

	g, _, gens, err := setupGateway()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	perf.Reset()
	perf.Enable()
	p := loadPass(o, g, want, rec)
	perf.Disable()
	res.attempted += p.attempted
	res.failed += p.failed
	n := len(p.cycles)
	o.logf("plain: %d runs, traced: %d runs", len(plain.cycles), n)

	qwait, err := queueWait(g.base)
	if err != nil {
		res.fail(o, err)
	}
	var verify []float64
	var records, size float64
	for _, id := range p.ids {
		path := filepath.Join(g.dir, id+".journal")
		t0 := time.Now()
		vr, err := journal.Verify(path)
		verify = append(verify, time.Since(t0).Seconds())
		var fi os.FileInfo
		if err == nil {
			fi, err = os.Stat(path)
		}
		if err == nil && !vr.Clean() {
			err = fmt.Errorf("journal %s: %s", id, vr)
		}
		if err != nil {
			res.fail(o, err)
			continue
		}
		records += float64(vr.Records)
		size += float64(fi.Size())
	}
	var predict []float64
	for i := 0; i < predictReps; i++ {
		t0 := time.Now()
		if _, err := core.Predict(g.ds, gatewayConfig()); err != nil {
			res.fail(o, err)
			break
		}
		predict = append(predict, time.Since(t0).Seconds())
	}
	if err := g.stop(); err != nil {
		res.fail(o, fmt.Errorf("stop gateway: %w", err))
	}
	if n == 0 || len(plain.cycles) == 0 {
		return res, nil
	}

	for _, name := range []string{"gateway.trace", "gateway.proof", "gateway.transcripts"} {
		res.set(name+"_s", median(p.pick(func(c cycleTimes) []time.Duration { return []time.Duration{c.reads[name]} })))
	}
	res.set("gateway.submit_s", median(p.pick(func(c cycleTimes) []time.Duration { return []time.Duration{c.submit} })))
	res.set("gateway.queue_wait_s", qwait)
	addProbes(res, n)
	res.set("journal.records_per_run", records/float64(n))
	res.set("journal.bytes_per_run", size/float64(n))
	res.set("journal.verify_s", median(verify))
	res.set("core.predict_s", median(predict))
	res.set("simdata.generate_s", median(gens))

	spans := rec.snapshot()
	isCycle := map[int]bool{}
	for _, s := range spans {
		if s.Name == "gateway.cycle" {
			isCycle[s.ID] = true
		}
	}
	var covered time.Duration
	for _, s := range spans {
		if isCycle[s.Parent] {
			covered += s.dur()
		}
	}
	plainWall := median(plain.walls())
	res.set("trace.coverage", covered.Seconds()/float64(len(isCycle))/plainWall)
	res.set("trace.overhead_s", median(p.walls())-plainWall)
	res.spans = spans
	return res, nil
}

// queueWait reads the mean queue wait from the gateway's own
// runs_queue_wait_seconds histogram on /api/metrics.
func queueWait(base string) (float64, error) {
	resp, err := http.Get(base + "/api/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var total, count float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case gateway.MetricRunsQueueWait + "_sum":
			total = v
		case gateway.MetricRunsQueueWait + "_count":
			count = v
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if count == 0 {
		return 0, fmt.Errorf("%s: no observations", gateway.MetricRunsQueueWait)
	}
	return total / count, nil
}
