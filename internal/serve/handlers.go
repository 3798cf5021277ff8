package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"ispn/internal/scenario"
)

// maxBodyBytes bounds request bodies (scenario source and event blocks are
// small text files; a megabyte is generous).
const maxBodyBytes = 1 << 20

// Handler returns the control-plane API (see docs/SERVE.md for the
// reference):
//
//	POST   /sessions              create a session
//	GET    /sessions              list sessions
//	GET    /sessions/{id}         status
//	POST   /sessions/{id}         action: pause | resume | finish
//	DELETE /sessions/{id}         stop and remove
//	GET    /sessions/{id}/flows   live per-flow stats
//	GET    /sessions/{id}/links   live per-link stats
//	POST   /sessions/{id}/events  inject .ispn timeline events
//	GET    /sessions/{id}/trace   stream trace intervals (NDJSON or SSE)
//	GET    /sessions/{id}/report  final report text
//	GET    /healthz               liveness
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", m.handleHealth)
	mux.HandleFunc("POST /sessions", m.handleCreate)
	mux.HandleFunc("GET /sessions", m.handleList)
	mux.HandleFunc("GET /sessions/{id}", m.withSession(handleStatus))
	mux.HandleFunc("POST /sessions/{id}", m.withSession(handleAction))
	mux.HandleFunc("DELETE /sessions/{id}", m.handleDelete)
	mux.HandleFunc("GET /sessions/{id}/flows", m.withSession(handleFlows))
	mux.HandleFunc("GET /sessions/{id}/links", m.withSession(handleLinks))
	mux.HandleFunc("POST /sessions/{id}/events", m.withSession(handleEvents))
	mux.HandleFunc("GET /sessions/{id}/trace", m.withSession(handleTrace))
	mux.HandleFunc("GET /sessions/{id}/report", m.withSession(handleReport))
	return mux
}

// --- helpers ----------------------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// withSession resolves {id} and 404s unknown sessions.
func (m *Manager) withSession(h func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s := m.Get(r.PathValue("id"))
		if s == nil {
			writeError(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
			return
		}
		h(w, r, s)
	}
}

// --- handlers ---------------------------------------------------------------

func (m *Manager) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "sessions": len(m.List())})
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	s, err := m.Create(req)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, errTooManySessions) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "%v", err)
		return
	}
	var st status
	if err := s.do(func() { st = s.status() }); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	out := []status{}
	for _, s := range m.List() {
		var st status
		if s.do(func() { st = s.status() }) == nil {
			out = append(out, st)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (m *Manager) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !m.Delete(id) {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func handleStatus(w http.ResponseWriter, r *http.Request, s *session) {
	var st status
	if err := s.do(func() { st = s.status() }); err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func handleAction(w http.ResponseWriter, r *http.Request, s *session) {
	var body struct {
		Action string `json:"action"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	var st status
	err := s.do(func() {
		switch body.Action {
		case "pause":
			s.setPaused(true)
		case "resume":
			s.setPaused(false)
		case "finish":
			// Run straight to the horizon on the session goroutine; the
			// response carries the final ("done") status.
			s.setPaused(false)
			s.finish()
		}
		st = s.status()
	})
	if err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	switch body.Action {
	case "pause", "resume", "finish":
		writeJSON(w, http.StatusOK, st)
	default:
		writeError(w, http.StatusBadRequest, "unknown action %q (pause, resume, finish)", body.Action)
	}
}

func handleFlows(w http.ResponseWriter, r *http.Request, s *session) {
	var flows []scenario.FlowReport
	var now float64
	var pcts []float64
	if err := s.do(func() { now = s.sim.Now(); pcts = s.sim.Percentiles; flows = s.sim.FlowReports() }); err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"sim_time": now, "percentiles": pcts, "flows": flows})
}

func handleLinks(w http.ResponseWriter, r *http.Request, s *session) {
	var links []scenario.LinkSnapshot
	var now float64
	if err := s.do(func() { now = s.sim.Now(); links = s.sim.LinkSnapshots() }); err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"sim_time": now, "links": links})
}

// handleEvents injects timeline events: the body is plain .ispn text holding
// only `at <time> { ... }` blocks — the exact syntax of a scenario file's
// timeline, compiled by the same compiler with the same diagnostics.
func handleEvents(w http.ResponseWriter, r *http.Request, s *session) {
	src, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var n int
	var injErr error
	var finished bool
	var now float64
	err = s.do(func() {
		if finished = s.finished; finished {
			return
		}
		s.injectSeq++
		name := fmt.Sprintf("%s-inject-%d.ispn", s.id, s.injectSeq)
		n, injErr = s.sim.InjectEvents(name, src)
		if injErr == nil {
			s.injected += n
		}
		now = s.sim.Now()
	})
	switch {
	case err != nil:
		writeError(w, http.StatusGone, "%v", err)
	case finished:
		writeError(w, http.StatusConflict, "session is done; events cannot be injected")
	case injErr != nil:
		writeError(w, http.StatusUnprocessableEntity, "%v", injErr)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"scheduled": n, "sim_time": now})
	}
}

// handleTrace streams completed trace intervals. Default framing is NDJSON
// (one JSON row per line); with Accept: text/event-stream (or ?sse=1) each
// row becomes an SSE "data:" event. ?from=N skips the first N intervals, so
// a reconnecting client resumes where it left off. The stream ends when the
// session finishes (or is deleted).
func handleTrace(w http.ResponseWriter, r *http.Request, s *session) {
	var dt float64
	if err := s.do(func() { dt = s.sim.TraceInterval() }); err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	if dt <= 0 {
		writeError(w, http.StatusConflict,
			"session has no trace; create it with a trace interval (\"trace\": 10) or a Run(trace ...) knob")
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad from %q", v)
			return
		}
		from = n
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	for {
		var rows []scenario.TraceRow
		var finished bool
		var news <-chan struct{} // closed when there are rows past these, or the run finished
		if err := s.do(func() { rows = s.sim.TraceRows(from); finished = s.finished; news = s.news }); err != nil {
			return // session deleted mid-stream
		}
		for _, row := range rows {
			b, _ := json.Marshal(row)
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", b)
			} else {
				fmt.Fprintf(w, "%s\n", b)
			}
		}
		from += len(rows)
		if len(rows) > 0 && flusher != nil {
			flusher.Flush()
		}
		if finished {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			// Deleted: emit whatever had completed; the loop above already
			// did, so just stop.
			return
		case <-news:
		}
	}
}

// handleReport returns the final report as the exact text `ispnsim run`
// prints — byte-identical to a batch run of the same scenario, injected
// events included.
func handleReport(w http.ResponseWriter, r *http.Request, s *session) {
	var rep *scenario.Report
	if err := s.do(func() { rep = s.report }); err != nil {
		writeError(w, http.StatusGone, "%v", err)
		return
	}
	if rep == nil {
		writeError(w, http.StatusConflict, "session is not finished; poll status or POST {\"action\":\"finish\"}")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, rep.Format())
}
