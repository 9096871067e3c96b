package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/serve"
	"repro/internal/sweep"
)

var serveOpen = workload{
	name: "serve-open",
	why: "An open loop of compile jobspecs posted at a fixed rate below capacity to an in-process merced serve handler over loopback, " +
		"half of them repeating an earlier (circuit, seed) pair, the only workload that exercises admission, queue, HTTP and the shared cache.",
	setup: setupServeOpen,
	run:   runServeOpen,
}

const (
	// serveRate is the open loop's fixed arrival rate, below the capacity
	// of two server workers on the request mix.
	serveRate = 6.0
	// serveLatencyLimit is the latency a request must meet to count as
	// served.
	serveLatencyLimit = 2 * time.Second
	// metricsPoll is how often the load generator samples GET /metrics for
	// the queue depth.
	metricsPoll = 100 * time.Millisecond
)

// serveCircuits and serveLKs span the requests: the two largest small
// Table 9 circuits at the paper's two input constraints. With the smaller
// circuits in the mix the median request took about 40 ms, and host CPU
// steal moved it by ±20% from run to run; requests of about 100 ms moved
// by ±5%.
var (
	serveCircuits = []string{"s838.1", "s1423"}
	serveLKs      = []int{16, 24}
)

// request is one scheduled compile request.
type request struct {
	due  time.Duration // since the schedule start
	spec []byte
	key  string // the spec's (circuit, lk, seed) identity
}

// schedule builds n requests at the fixed rate. Request i, for odd i of
// at least 3, repeats the (circuit, seed) pair of request i-3, half a
// second earlier, at the other l_k: it reuses that request's saturated
// network from the server's cache and partitions afresh. Every other
// request compiles a new pair; new pairs walk every (circuit, l_k)
// combination once per block in a seed-shuffled order. So every seed's
// mix holds the same circuits, cache hits and misses in the same
// proportions.
func schedule(seed int64, n int, rate float64, circuits []string) []request {
	rng := rand.New(rand.NewSource(seed))
	type pair struct {
		circuit string
		lk      int
		seed    int64
	}
	var combos []pair
	for _, c := range circuits {
		for _, lk := range serveLKs {
			combos = append(combos, pair{circuit: c, lk: lk})
		}
	}
	var block []pair // combinations left for new pairs
	pairs := make([]pair, n)
	reqs := make([]request, n)
	for i := range reqs {
		var p pair
		if i%2 == 1 && i >= 3 {
			p = pairs[i-3]
			p.lk = serveLKs[0] + serveLKs[1] - p.lk
		} else {
			if len(block) == 0 {
				block = append(block, combos...)
				rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			p, block = block[0], block[1:]
			p.seed = 1 + rng.Int63n(1<<30)
		}
		pairs[i] = p
		spec := fmt.Sprintf(`{"v":1,"kind":"compile","compile":{"circuit":%q,"lk":%d,"seed":%d}}`, p.circuit, p.lk, p.seed)
		reqs[i] = request{
			due:  time.Duration(float64(i) / rate * float64(time.Second)),
			spec: []byte(spec),
			key:  spec,
		}
	}
	return reqs
}

type serveState struct {
	reqs []request
}

func setupServeOpen(ctx context.Context, e *env) (any, error) {
	n, circuits := int(serveRate*e.seconds), serveCircuits
	if e.tiny {
		n, circuits = 1, []string{"s510"}
	}
	st := &serveState{reqs: schedule(e.seed, max(n, 1), serveRate, circuits)}
	// Warm-up: one request per circuit of the mix through a throwaway
	// server, so the timed server starts cold on a warmed process.
	ls, err := startServer(e.workers)
	if err != nil {
		return nil, err
	}
	var werr error
	for _, c := range circuits {
		o := ls.do(ctx, []byte(fmt.Sprintf(`{"v":1,"kind":"compile","compile":{"circuit":%q,"lk":16}}`, c)))
		if o.refused {
			o.err = errors.New("refused")
		}
		werr = errors.Join(werr, o.err)
	}
	if err := errors.Join(werr, ls.stop()); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// outcome is one request's result as the load generator saw it.
type outcome struct {
	latency time.Duration // from due time to result read
	lag     time.Duration // how late the request was sent
	submit  time.Duration // POST round trip
	body    []byte
	refused bool
	err     error
}

// pass is one run of a schedule against a fresh server.
type pass struct {
	outs []outcome
	// cpu is the process CPU time from the first request's due time to
	// the last result read: the server's work, and the client's.
	cpu           time.Duration
	queueDepthMax float64
	metrics       map[string]float64
}

func runServeOpen(ctx context.Context, e *env, state any) error {
	st := state.(*serveState)
	p, err := e.servePass(ctx, st.reqs)
	if err != nil {
		return err
	}
	e.tr.rounds = 1
	// The stopped server's cache is garbage now; collect it before the
	// reference renders build their own, so peak_rss_mb does not depend
	// on when the collector last ran.
	runtime.GC()
	ok, err := e.checkServe(ctx, st.reqs, p)
	if err != nil {
		return err
	}
	if e.trace {
		e.serveLayers(p)
		return nil
	}
	e.reportServe(p, ok)
	return nil
}

// serveLayers sets the traced run's serve and loadgen metrics.
func (e *env) serveLayers(p *pass) {
	var submit float64
	refused := 0
	lats := make([]float64, 0, len(p.outs))
	for _, o := range p.outs {
		submit += ms(o.submit)
		lats = append(lats, ms(o.latency))
		if o.refused {
			refused++
		}
		e.layer["loadgen.lag_ms"] = max(e.layer["loadgen.lag_ms"], ms(o.lag))
	}
	n := float64(len(p.outs))
	e.layer["serve.submit_ms"] = submit / n
	e.layer["serve.rejected_ratio"] = float64(refused) / n
	e.layer["serve.queue_depth_max"] = p.queueDepthMax
	e.layer["serve.req_tail_ms"], _, _ = tail(lats)
	if h, m := p.metrics["cache.saturated.hits"], p.metrics["cache.saturated.misses"]; h+m > 0 {
		e.layer["serve.saturated_hit_ratio"] = h / (h + m)
	}
}

// reportServe sets the end-to-end metrics of the untraced pass; ok marks
// the requests whose results passed the check.
func (e *env) reportServe(p *pass, ok []bool) {
	lats := make([]float64, 0, len(p.outs))
	answered, served := 0, 0
	var lag time.Duration
	for i, o := range p.outs {
		lag = max(lag, o.lag)
		if !ok[i] {
			// A refused, failed or wrong request misses every limit.
			lats = append(lats, math.Inf(1))
			continue
		}
		answered++
		lats = append(lats, ms(o.latency))
		if o.latency <= serveLatencyLimit {
			served++
		}
	}
	n := float64(len(p.outs))
	p50 := finite(median(lats))
	tailV, tailP, samples := tail(lats)
	tailV = finite(tailV)
	e.e2e["op_cpu_ms"] = ms(p.cpu) / float64(max(answered, 1))
	e.e2e["ok_ratio"] = float64(served) / n
	e.addDetail("req_p50_ms", p50, "ms", fmt.Sprintf("%d requests at %.0f/s", len(p.outs), serveRate))
	e.addDetail("req_tail_ms", tailV, "ms", fmt.Sprintf("p%.1f of %d samples", tailP, samples))
	e.addDetail("served_ratio", e.e2e["ok_ratio"], "ratio", fmt.Sprintf("within %v; %d refused", serveLatencyLimit, e.refused))
	e.addDetail("saving_pct", e.e2e["quality_pct"], "pct-points", "mean over requests")
	e.addDetail("loadgen.lag_ms", ms(lag), "ms", "latest a request was sent")
}

// checkServe compares every result with jobspec.Run of the same spec in
// process, up to the report's one wall-clock line, and checks the
// reference compile's partition and retiming. It sets quality_pct to the
// mean saving over the requests.
func (e *env) checkServe(ctx context.Context, reqs []request, p *pass) ([]bool, error) {
	refs, err := e.serveRefs(ctx, reqs)
	if err != nil {
		return nil, err
	}
	var savings []float64
	ok := make([]bool, len(reqs))
	checked := map[string]bool{}
	for i, r := range reqs {
		o := p.outs[i]
		e.attempted++
		if o.refused {
			e.refused++
			continue
		}
		if o.err != nil {
			e.check("request "+r.key, o.err)
			continue
		}
		want := refs[r.key]
		if !checked[r.key] {
			checked[r.key] = true
			e.check("reference "+r.key, want.check)
		}
		got := timingFree(o.body)
		if e.corrupt && len(got) > 0 {
			got = append([]byte(nil), got...)
			got[0] ^= 1
		}
		if !bytes.Equal(got, want.text) {
			e.check("request "+r.key, fmt.Errorf("served report differs from the in-process render"))
			continue
		}
		ok[i] = true
		savings = append(savings, want.saving)
		e.digest.add(got)
	}
	e.e2e["quality_pct"] = mean(savings)
	return ok, nil
}

// serveRef is the in-process render of one spec and the outcome of
// checking its compile.
type serveRef struct {
	text   []byte
	saving float64
	check  error
}

// serveRefs renders every distinct spec of reqs in process, on e.workers
// goroutines sharing one artifact cache as the server's jobs do.
func (e *env) serveRefs(ctx context.Context, reqs []request) (map[string]serveRef, error) {
	refs := map[string]serveRef{}
	var keys []string
	specs := map[string][]byte{}
	for _, r := range reqs {
		if _, ok := specs[r.key]; !ok {
			specs[r.key] = r.spec
			keys = append(keys, r.key)
		}
	}
	cache := sweep.NewCache(0)
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	next := make(chan string)
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range next {
				ref, err := e.serveRef(ctx, specs[key], cache)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("reference render of %s: %w", key, err))
				}
				refs[key] = ref
				mu.Unlock()
			}
		}()
	}
	for _, key := range keys {
		next <- key
	}
	close(next)
	wg.Wait()
	return refs, errors.Join(errs...)
}

func (e *env) serveRef(ctx context.Context, specJSON []byte, cache *sweep.Cache) (serveRef, error) {
	spec, err := jobspec.Parse(bytes.NewReader(specJSON))
	if err != nil {
		return serveRef{}, err
	}
	var b bytes.Buffer
	var res *core.Result
	rt := jobspec.Runtime{Cache: cache, OnCompileResult: func(cr *core.Result) error { res = cr; return nil }}
	if err := jobspec.Run(ctx, spec, &b, rt); err != nil {
		return serveRef{}, err
	}
	return serveRef{
		text:   timingFree(b.Bytes()),
		saving: res.Areas.Saving(),
		check:  e.checkPartition(res.Partition, spec.Compile.LK, res.Retiming, res.CombGraph),
	}, nil
}

// timingFree drops the compile report's wall-clock line.
func timingFree(report []byte) []byte {
	var out bytes.Buffer
	sc := bufio.NewScanner(bytes.NewReader(report))
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "compile time: ") {
			out.Write(sc.Bytes())
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

// servePass runs reqs as an open loop against a fresh server: each request
// is sent at its due time whether or not earlier ones have finished.
func (e *env) servePass(ctx context.Context, reqs []request) (*pass, error) {
	ls, err := startServer(e.workers)
	if err != nil {
		return nil, err
	}
	p := &pass{outs: make([]outcome, len(reqs))}
	top := e.tr.begin(0, 0, "loadgen", "open loop")

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t := time.NewTicker(metricsPoll)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				if m, err := ls.metrics(ctx); err == nil {
					p.queueDepthMax = max(p.queueDepthMax, m["serve.queue_depth"])
				}
			}
		}
	}()

	start, cpu0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for i, r := range reqs {
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, r request) {
			defer wg.Done()
			sent := time.Now()
			id := e.tr.begin(top, i+1, "serve", "request")
			o := ls.do(ctx, r.spec)
			e.tr.finish(id)
			o.lag = sent.Sub(due)
			o.latency = time.Since(due)
			p.outs[i] = o
		}(i, r)
	}
	wg.Wait()
	p.cpu = cpuTime() - cpu0
	e.tr.finish(top)
	close(stopPoll)
	pollWG.Wait()

	p.metrics, err = ls.metrics(ctx)
	return p, errors.Join(err, ls.stop())
}

// liveServer is an in-process merced serve handler on a loopback port and
// the load generator's client. The client speaks unencrypted HTTP/2, so
// every request shares one connection however many are in flight.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

func startServer(workers int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		srv:    serve.New(serve.Config{Workers: workers}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	var protos http.Protocols
	protos.SetHTTP1(true)
	protos.SetUnencryptedHTTP2(true)
	ls.hs = &http.Server{Handler: ls.srv.Handler(), Protocols: &protos}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	var clientProtos http.Protocols
	clientProtos.SetUnencryptedHTTP2(true)
	ls.client = &http.Client{Transport: &http.Transport{Protocols: &clientProtos}}
	return ls, nil
}

// stop drains the daemon, shuts the listener down and waits for it.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := ls.srv.Drain(ctx)
	ls.client.CloseIdleConnections()
	err = errors.Join(err, ls.hs.Shutdown(ctx))
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// do submits one spec, waits on its event stream for the terminal event
// and reads the result.
func (ls *liveServer) do(ctx context.Context, spec []byte) outcome {
	var o outcome
	t0 := time.Now()
	status, body, err := ls.call(ctx, http.MethodPost, "/v1/jobs", spec)
	o.submit = time.Since(t0)
	switch {
	case err != nil:
		o.err = err
		return o
	case status == http.StatusTooManyRequests:
		o.refused = true
		return o
	case status != http.StatusCreated:
		o.err = fmt.Errorf("submit: HTTP %d: %s", status, body)
		return o
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(body, &sub); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	_, events, err := ls.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		o.err = err
		return o
	}
	if !bytes.Contains(events, []byte("event: done\ndata: {\"state\":\"done\"}")) {
		o.err = fmt.Errorf("job %s did not finish: %q", sub.ID, lastLine(events))
		return o
	}
	status, o.body, err = ls.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result: HTTP %d", status)
	}
	o.err = err
	return o
}

func (ls *liveServer) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, ls.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// metrics reads GET /metrics into name → value.
func (ls *liveServer) metrics(ctx context.Context) (map[string]float64, error) {
	status, body, err := ls.call(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", status)
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m, nil
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// finite reports an infinite latency, one that missed every limit, as the
// largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
