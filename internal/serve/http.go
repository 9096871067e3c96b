package serve

// The HTTP surface. Routes (Go 1.22+ method/wildcard patterns):
//
//	POST   /v1/jobs             submit a v1 jobspec → 201 {"id","state"}
//	GET    /v1/jobs/{id}        status → {"id","kind","state","error","progress"}
//	GET    /v1/jobs/{id}/result the rendered report (409 until terminal)
//	GET    /v1/jobs/{id}/events SSE progress stream, terminal "done" event
//	GET    /v1/jobs/{id}/trace  Chrome trace_event JSON ("output.trace" jobs)
//	DELETE /v1/jobs/{id}        cancel → 202
//	GET    /metrics             counter/gauge table (text);
//	                            ?format=prometheus negotiates the
//	                            Prometheus text exposition instead
//	GET    /healthz             liveness
//	/debug/pprof/*              net/http/pprof (only under Config.Pprof)
//
// Error bodies are always {"error": "..."}; a 429 carries Retry-After. A
// spec whose circuit reference names a file is refused with 400.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/jobspec"
	"repro/internal/sweep"
)

// apiError is a transport-level failure: an HTTP status plus a message for
// the JSON error body.
type apiError struct {
	status     int
	msg        string
	retryAfter int // seconds; emitted as Retry-After when > 0
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.status, map[string]string{"error": e.msg})
}

// Handler builds the route table. It is stateless — call it as many times
// as needed (tests mount it on httptest servers).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.Pprof {
		// net/http/pprof registers on DefaultServeMux at import; mount its
		// handlers explicitly so they exist only when asked for.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := jobspec.Parse(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		writeErr(w, &apiError{status: http.StatusBadRequest, msg: err.Error()})
		return
	}
	// Rejected before the job exists, so no cache lookup can serve a file
	// that a CLI run sharing the cache directory parsed.
	if name := fileCircuit(spec); name != "" {
		writeErr(w, &apiError{status: http.StatusBadRequest,
			msg: fmt.Sprintf("circuit %q is a file reference; merced serve loads built-in circuits only", name)})
		return
	}
	j, aerr := s.submit(spec)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	st, _, _ := j.snapshot()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusCreated, map[string]string{"id": j.id, "state": string(st)})
}

// fileCircuit returns the first circuit reference in spec that
// sweep.LoadCircuit would open as a file, or "". The daemon never reads
// server files on a client's behalf: a parse error would echo their
// contents.
func fileCircuit(spec *jobspec.Spec) string {
	var refs []string
	if c := spec.Compile; c != nil {
		refs = append(refs, c.Circuit)
	}
	if c := spec.Cover; c != nil {
		refs = append(refs, c.Circuit)
	}
	if sw := spec.Sweep; sw != nil {
		refs = append(refs, sw.Circuits...)
		for _, j := range sw.Jobs {
			refs = append(refs, j.Circuit)
		}
	}
	for _, name := range refs {
		if sweep.IsCircuitFile(name) {
			return name
		}
	}
	return ""
}

// jobOr404 resolves {id}, answering 404 itself when unknown.
func (s *Server) jobOr404(w http.ResponseWriter, r *http.Request) *job {
	j := s.get(r.PathValue("id"))
	if j == nil {
		writeErr(w, &apiError{status: http.StatusNotFound, msg: "no such job " + r.PathValue("id")})
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	st, jerr, prog := j.snapshot()
	body := map[string]any{
		"id":       j.id,
		"kind":     string(j.spec.Kind),
		"state":    string(st),
		"progress": prog,
	}
	if jerr != nil {
		body["error"] = jerr.Error()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.state.terminal() {
		st := j.state
		j.mu.Unlock()
		writeErr(w, &apiError{status: http.StatusConflict, msg: "job already " + string(st)})
		return
	}
	j.cancelRequested = true
	j.mu.Unlock()
	j.cancel()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.id, "state": "cancelling"})
}

// contentType maps a spec's output format to the report MIME type.
func contentType(spec *jobspec.Spec) string {
	switch spec.Output.Format {
	case "json":
		return "application/json"
	case "csv":
		return "text/csv; charset=utf-8"
	default:
		return "text/plain; charset=utf-8"
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	st, jerr, report := j.state, j.err, j.report
	j.mu.Unlock()
	switch {
	case !st.terminal():
		writeErr(w, &apiError{status: http.StatusConflict, msg: "job is " + string(st) + "; result not ready"})
	case len(report) == 0 && jerr != nil:
		writeErr(w, &apiError{status: http.StatusInternalServerError, msg: jerr.Error()})
	default:
		// A failed sweep still rendered its report (the failure is a
		// per-job error inside it); serve the bytes and flag the state.
		w.Header().Set("Content-Type", contentType(j.spec))
		w.Header().Set("Merced-Job-State", string(st))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(report)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	st, trace := j.state, j.trace
	j.mu.Unlock()
	switch {
	case j.spec.Output == nil || !j.spec.Output.Trace:
		writeErr(w, &apiError{status: http.StatusNotFound, msg: "job was not submitted with output.trace"})
	case !st.terminal():
		writeErr(w, &apiError{status: http.StatusConflict, msg: "job is " + string(st) + "; trace not ready"})
	case len(trace) == 0:
		writeErr(w, &apiError{status: http.StatusNotFound, msg: "no trace recorded"})
	default:
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(trace)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "table":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = s.Metrics().WriteTable(w, false)
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WritePrometheus(w)
	default:
		writeErr(w, &apiError{status: http.StatusBadRequest, msg: "unknown metrics format " + strconv.Quote(format) + " (want table or prometheus)"})
	}
}

// handleEvents streams progress as Server-Sent Events: an initial
// "progress" event with the counts so far, one per update (coalesced under
// backpressure), and a terminal "done" event carrying the final state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, &apiError{status: http.StatusInternalServerError, msg: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, last := j.subscribe()
	defer j.unsubscribe(ch)
	sendProgress := func(p progress) {
		fmt.Fprintf(w, "event: progress\ndata: {\"done\":%d,\"total\":%d}\n\n", p.Done, p.Total)
		fl.Flush()
	}
	sendProgress(last)
	for {
		select {
		case p := <-ch:
			sendProgress(p)
		case <-j.finished:
			// Flush any update that raced the finish, then the terminal
			// event; the handler returning closes the stream.
			for {
				select {
				case p := <-ch:
					sendProgress(p)
					continue
				default:
				}
				break
			}
			st, jerr, p := j.snapshot()
			sendProgress(p)
			if jerr != nil {
				data, _ := json.Marshal(map[string]string{"state": string(st), "error": jerr.Error()})
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
			} else {
				fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", string(st))
			}
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}
