package serve

// White-box tests for the daemon. The lifecycle/admission tests substitute
// a controllable stub for jobspec.Run so queue states are reached
// deterministically; the end-to-end tests run the real funnel over s27 and
// pin the byte-identity contract against a direct jobspec.Run.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobspec"
)

// newTestServer builds a server whose jobs block until release is closed
// (or their context is cancelled), so tests can fill the queue and observe
// intermediate states.
func newTestServer(t *testing.T, cfg Config) (*Server, chan struct{}) {
	t.Helper()
	s := New(cfg)
	release := make(chan struct{})
	s.run = func(ctx context.Context, spec *jobspec.Spec, w io.Writer, rt jobspec.Runtime) error {
		select {
		case <-release:
			fmt.Fprintln(w, "stub report")
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s, release
}

func postJob(t *testing.T, ts *httptest.Server, spec string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, body
}

func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// waitState polls the status endpoint until the job reaches want.
func waitState(t *testing.T, ts *httptest.Server, id, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, _, b := getBody(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d: %s", id, code, b)
		}
		var st map[string]any
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		if st["state"] == want {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return nil
}

const sweepSpec = `{"v":1,"kind":"sweep",
	"sweep":{"circuits":["s27"],"lks":[3,4],"workers":2},
	"output":{"format":"json","no_timing":true}}`

// TestSubmitRunResult is the end-to-end happy path with the real funnel:
// submit, wait, fetch — and the report is byte-identical to a direct
// jobspec.Run of the same document.
func TestSubmitRunResult(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := postJob(t, ts, sweepSpec)
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d: %v", code, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("submit response missing id: %v", body)
	}
	waitState(t, ts, id, "done")

	rcode, hdr, got := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
	if rcode != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", rcode, got)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("result Content-Type = %q; want application/json", ct)
	}

	spec, err := jobspec.Parse(strings.NewReader(sweepSpec))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := jobspec.Run(context.Background(), spec, &want, jobspec.Runtime{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("HTTP result diverges from direct jobspec.Run:\n got %s\nwant %s", got, want.String())
	}
}

func TestSubmitRejectsBadSpec(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, spec := range []string{
		`{"v":1,"kind":"sweep","sweep":{"circutis":["s27"]}}`, // typo'd key
		`{"v":2,"kind":"sweep","sweep":{}}`,                   // future version
		`not json`,
	} {
		code, body := postJob(t, ts, spec)
		if code != http.StatusBadRequest {
			t.Errorf("submit(%s): HTTP %d, want 400 (%v)", spec, code, body)
		}
		if body["error"] == "" {
			t.Errorf("submit(%s): no error message", spec)
		}
	}
}

// TestAdmissionControl fills the worker and the queue, then expects 429 +
// Retry-After, then drains the backlog and expects admission to recover.
func TestAdmissionControl(t *testing.T) {
	s, release := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	compile := `{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3}}`
	// First job occupies the worker, second the queue slot. The dequeue is
	// asynchronous, so briefly poll for the queue slot to open.
	if code, body := postJob(t, ts, compile); code != http.StatusCreated {
		t.Fatalf("job 1: HTTP %d: %v", code, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := postJob(t, ts, compile); code == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue slot never opened for job 2")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Now worker busy + queue full: the next submission must bounce.
	deadline = time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(compile))
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		retry := resp.Header.Get("Retry-After")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusTooManyRequests {
			if retry == "" {
				t.Error("429 without Retry-After")
			}
			break
		}
		// A worker may have dequeued between our probes; keep filling.
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429, last code %d", code)
		}
	}

	var m bytes.Buffer
	if err := s.Metrics().WriteTable(&m, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.String(), "serve.rejected") {
		t.Errorf("metrics missing serve.rejected:\n%s", m.String())
	}

	close(release)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s, release := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	compile := `{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3}}`
	_, b1 := postJob(t, ts, compile) // occupies the worker
	id1, _ := b1["id"].(string)
	waitState(t, ts, id1, "running")
	_, b2 := postJob(t, ts, compile) // waits in the queue
	id2, _ := b2["id"].(string)

	for _, id := range []string{id2, id1} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s: HTTP %d", id, resp.StatusCode)
		}
	}
	waitState(t, ts, id1, "cancelled")
	waitState(t, ts, id2, "cancelled")

	// Cancelling a finished job conflicts.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id1, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job: HTTP %d, want 409", resp.StatusCode)
	}
	close(release)
}

func TestResultNotReadyAndUnknownJob(t *testing.T) {
	s, release := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, b := postJob(t, ts, `{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3}}`)
	id, _ := b["id"].(string)
	code, _, _ := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusConflict {
		t.Errorf("result of running job: HTTP %d, want 409", code)
	}
	code, _, _ = getBody(t, ts.URL+"/v1/jobs/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d, want 404", code)
	}
	code, _, _ = getBody(t, ts.URL+"/v1/jobs/nope/result")
	if code != http.StatusNotFound {
		t.Errorf("unknown job result: HTTP %d, want 404", code)
	}
	close(release)
	waitState(t, ts, id, "done")
}

// TestSSEStream reads the events endpoint of a real sweep: progress events
// followed by a terminal done event, then the stream closes.
func TestSSEStream(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, b := postJob(t, ts, sweepSpec)
	id, _ := b["id"].(string)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var progressEvents int
	var doneData string
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "progress" {
				progressEvents++
			} else if event == "done" {
				doneData = strings.TrimPrefix(line, "data: ")
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	if progressEvents == 0 {
		t.Error("no progress events")
	}
	var done struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(doneData), &done); err != nil || done.State != "done" {
		t.Errorf("terminal event = %q (err %v); want state done", doneData, err)
	}
}

// TestConcurrentJobsSingleflightCache is the cache-sharing contract: two
// simultaneous jobs on the same (circuit, seed, flow) prefix must compute
// the Saturated stage exactly once between them — one miss, one hit —
// whether they overlap (singleflight blocks the second) or serialize (the
// second hits the ready entry). Run under -race in CI.
func TestConcurrentJobsSingleflightCache(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	compile := `{"v":1,"kind":"compile","compile":{"circuit":"s510","lk":8}}`
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, b := postJob(t, ts, compile)
			if code != http.StatusCreated {
				t.Errorf("submit %d: HTTP %d", i, code)
				return
			}
			ids[i], _ = b["id"].(string)
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != "" {
			waitState(t, ts, id, "done")
		}
	}

	st := s.Cache().Stats()
	if st.Saturated.Misses != 1 || st.Saturated.Hits != 1 {
		t.Errorf("saturated cache stats = %+v; want exactly {Hits:1 Misses:1}", st.Saturated)
	}
	if st.Parsed.Misses != 1 || st.Analyzed.Misses != 1 {
		t.Errorf("upstream stages recomputed: parsed %+v analyzed %+v", st.Parsed, st.Analyzed)
	}

	// The same counters, via the public endpoint the CI smoke scrapes.
	code, _, m := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, want := range []string{"cache.saturated.misses", "cache.saturated.hits", "serve.submitted", "serve.done"} {
		if !strings.Contains(string(m), want) {
			t.Errorf("/metrics missing %s:\n%s", want, m)
		}
	}
}

// TestTraceEndpoint submits a traced job and expects a Chrome trace_event
// JSON array back.
func TestTraceEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, b := postJob(t, ts, `{"v":1,"kind":"sweep",
		"sweep":{"circuits":["s27"],"lks":[3]},
		"output":{"format":"json","no_timing":true,"trace":true}}`)
	id, _ := b["id"].(string)
	waitState(t, ts, id, "done")
	code, hdr, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: HTTP %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace Content-Type = %q", ct)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Error("empty trace")
	}

	// An untraced job 404s its trace endpoint.
	_, b = postJob(t, ts, `{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3}}`)
	id2, _ := b["id"].(string)
	waitState(t, ts, id2, "done")
	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/"+id2+"/trace"); code != http.StatusNotFound {
		t.Errorf("trace of untraced job: HTTP %d, want 404", code)
	}
}

// TestDrain: a draining server finishes queued work, refuses new work with
// 503, and Drain returns.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	compile := `{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3}}`
	ids := make([]string, 3)
	for i := range ids {
		code, b := postJob(t, ts, compile)
		if code != http.StatusCreated {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		ids[i], _ = b["id"].(string)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, _, _ := s.get(id).snapshot()
		if st != stateDone {
			t.Errorf("job %s state after drain = %s; want done", id, st)
		}
	}
	if code, body := postJob(t, ts, compile); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d (%v), want 503", code, body)
	}
	// Idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestFailedJobReportsError: an unloadable circuit fails the job, the
// status carries the error, and the result endpoint returns it.
func TestFailedJobReportsError(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, b := postJob(t, ts, `{"v":1,"kind":"cover","cover":{"circuit":"no-such-circuit","lk":3}}`)
	id, _ := b["id"].(string)
	st := waitState(t, ts, id, "failed")
	if st["error"] == "" {
		t.Error("failed status has no error message")
	}
	code, _, body := getBody(t, ts.URL+"/v1/jobs/"+id+"/result")
	if code != http.StatusInternalServerError {
		t.Errorf("failed job result: HTTP %d (%s), want 500", code, body)
	}
}

// TestSubmitRejectsFileCircuits pins the trust boundary: a circuit
// reference that LoadCircuit would open as a file is refused at submit,
// for every kind and field that carries one, without reading the file or
// creating a job.
func TestSubmitRejectsFileCircuits(t *testing.T) {
	const token = "secret-token-abc123"
	path := filepath.Join(t.TempDir(), "secret.txt")
	if err := os.WriteFile(path, []byte(token+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ref := strconv.Quote(path)
	for _, spec := range []string{
		`{"v":1,"kind":"compile","compile":{"circuit":` + ref + `,"lk":3}}`,
		`{"v":1,"kind":"cover","cover":{"circuit":` + ref + `,"lk":3}}`,
		`{"v":1,"kind":"sweep","sweep":{"circuits":["s27",` + ref + `],"lks":[3]}}`,
		`{"v":1,"kind":"sweep","sweep":{"circuits":["s27"],"lks":[3],"jobs":[{"circuit":` + ref + `,"lk":3}]}}`,
		`{"v":1,"kind":"compile","compile":{"circuit":"s27.bench","lk":3}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s), want 400", spec, resp.StatusCode, body)
		}
		if strings.Contains(string(body), token) {
			t.Errorf("%s: response leaks the file's contents: %s", spec, body)
		}
	}
	if got := s.Metrics().Counters["serve.submitted"]; got != 0 {
		t.Errorf("serve.submitted = %d, want no job created", got)
	}
	if code, _, _ := getBody(t, ts.URL+"/v1/jobs/j1"); code != http.StatusNotFound {
		t.Errorf("job j1: HTTP %d, want 404", code)
	}
}
