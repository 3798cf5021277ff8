package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"ispn"
)

// serveClient drives the control-plane API the way one operator would: a
// closed loop on connection A (the next request leaves when the previous
// reply is in), and connection B holding the live trace stream. Both are
// loopback TCP to an httptest server in this process; no real link.
type serveClient struct {
	mgr    *ispn.ServeManager
	srv    *httptest.Server
	base   string
	a, b   *http.Client
	tr     *tracer
	parent int // span the session's requests hang under
	c      *checker
}

// openServer starts a fresh manager behind a fresh listener and the two
// one-connection clients that talk to it.
func openServer(tr *tracer, parent int, c *checker) *serveClient {
	mgr := ispn.NewServeManager(ispn.ServeConfig{})
	srv := httptest.NewServer(mgr.Handler())
	oneConn := func() *http.Client {
		return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}, Timeout: childTimeout}
	}
	return &serveClient{mgr: mgr, srv: srv, base: srv.URL, a: oneConn(), b: oneConn(), tr: tr, parent: parent, c: c}
}

// close stops the listener and every session.
func (sc *serveClient) close() {
	sc.a.CloseIdleConnections()
	sc.b.CloseIdleConnections()
	sc.srv.Close()
	sc.mgr.Close()
}

// create posts session k, paused, and returns the `at` blocks to inject
// into it and the 201 body.
func (sc *serveClient) create(seed int64, k int) (events string, created []byte, err error) {
	base, events := genWAN(seed, k)
	body, err := json.Marshal(map[string]any{"source": base, "name": fmt.Sprintf("wan%d", k), "paused": true})
	if err != nil {
		return
	}
	created, _, err = sc.call("create", "POST", "/sessions", body, http.StatusCreated)
	return
}

// call issues one request on connection A, checks the status code, and
// returns the body and the latency in milliseconds.
func (sc *serveClient) call(kind, method, path string, body []byte, want int) ([]byte, float64, error) {
	sp := sc.tr.begin(sc.parent, "http "+kind)
	t0 := time.Now()
	req, err := http.NewRequest(method, sc.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := sc.a.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("serve_live: %s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	sc.tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("serve_live: %s %s: %w", method, path, err)
	}
	sc.c.ok(resp.StatusCode == want, "serve_live: %s %s answered %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	if resp.StatusCode != want {
		return nil, 0, fmt.Errorf("serve_live: %s %s answered %d, want %d", method, path, resp.StatusCode, want)
	}
	return data, ms, nil
}

// traceStream is what connection B saw of one session's /trace.
type traceStream struct {
	rows, bytes int
	eof         time.Time
	err         error
}

// stream reads the NDJSON trace until the server ends it. Its span is a root
// of its own: it runs beside the session's requests, not inside one.
func (sc *serveClient) stream(id string, done chan<- traceStream) {
	var ts traceStream
	sp := sc.tr.begin(0, "http trace")
	defer func() {
		ts.eof = time.Now()
		sc.tr.end(sp)
		done <- ts
	}()
	resp, err := sc.b.Get(sc.base + "/sessions/" + id + "/trace")
	if err != nil {
		ts.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ts.err = fmt.Errorf("GET /trace answered %d", resp.StatusCode)
		return
	}
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		if len(lines.Bytes()) > 0 {
			ts.rows++
			ts.bytes += len(lines.Bytes()) + 1
		}
	}
	ts.err = lines.Err()
}

// sessionResult is what one served session contributes to the repeat.
type sessionResult struct {
	report string
	polls  []float64 // latencies (ms) of polls issued while the session ran
	hops   int64
	doneAt time.Time // when connection A first read status "done"
}

// drive takes a created, paused session through inject, resume, polling
// until done, /report and a last /links for the packet-hop total.
func (sc *serveClient) drive(path, events string) (out sessionResult, err error) {
	if _, _, err = sc.call("inject", "POST", path+"/events", []byte(events), http.StatusOK); err != nil {
		return
	}
	if _, _, err = sc.call("resume", "POST", path, []byte(`{"action":"resume"}`), http.StatusOK); err != nil {
		return
	}
	for {
		var round [3]float64
		var data []byte
		for i, kind := range []string{"flows", "links", "status"} {
			suffix := "/" + kind
			if kind == "status" {
				suffix = ""
			}
			if data, round[i], err = sc.call(kind, "GET", path+suffix, nil, http.StatusOK); err != nil {
				return
			}
		}
		var st struct{ Status string }
		if err = json.Unmarshal(data, &st); err != nil {
			return
		}
		if st.Status == "done" {
			out.doneAt = time.Now()
			break // this round may have polled a finished session; not a sample
		}
		out.polls = append(out.polls, round[:]...)
	}
	data, _, err := sc.call("report", "GET", path+"/report", nil, http.StatusOK)
	if err != nil {
		return
	}
	out.report = string(data)
	if data, _, err = sc.call("links", "GET", path+"/links", nil, http.StatusOK); err != nil {
		return
	}
	var links struct {
		Links []struct {
			TxPackets int64 `json:"tx_packets"`
		}
	}
	if err = json.Unmarshal(data, &links); err != nil {
		return
	}
	for _, l := range links.Links {
		out.hops += l.TxPackets
	}
	return
}

// session runs one served session start to finish: connection B streams
// /trace while connection A drives; DELETE comes last. It also returns how
// long the trace stream outlived the "done" status.
func (sc *serveClient) session(k int, events string, created []byte) (out sessionResult, ts traceStream, lagMS float64, err error) {
	var st struct{ ID string }
	if err = json.Unmarshal(created, &st); err != nil {
		return
	}
	path := "/sessions/" + st.ID
	streamed := make(chan traceStream, 1) // one send; never blocks the reader
	go sc.stream(st.ID, streamed)
	out, err = sc.drive(path, events)
	// "done" ends the stream on the server's side. Give the reader two
	// seconds to see that; DELETE then ends the stream whatever happened,
	// so the reader goroutine never outlives its session.
	collected := false
	if err == nil {
		select {
		case ts = <-streamed:
			collected = true
		case <-time.After(2 * time.Second):
			err = fmt.Errorf("serve_live: session %d: trace stream still open 2 s after done", k)
		}
	}
	if _, _, derr := sc.call("delete", "DELETE", path, nil, http.StatusOK); err == nil {
		err = derr
	}
	if !collected {
		ts = <-streamed
	}
	if err == nil && ts.err != nil {
		err = fmt.Errorf("serve_live: session %d trace stream: %w", k, ts.err)
	}
	if lag := ts.eof.Sub(out.doneAt); err == nil && lag > 0 {
		lagMS = float64(lag.Nanoseconds()) / 1e6
	}
	return
}

// runServe is one repeat of serve_live: 24 sessions one after another over
// loopback HTTP. Mode "twin" runs the same 24 texts, injected blocks
// appended, as plain batch scenarios — the bytes /report must reproduce.
func runServe(seed int64, mode string, tr *tracer) (*childResult, error) {
	if mode == "twin" {
		return runServeTwin(seed)
	}
	res := &childResult{}
	c := &checker{res: res}
	var obs *observer
	if tr != nil {
		obs = newObserver(nil)
		if err := obs.startProfile("serve_live"); err != nil {
			return nil, err
		}
		defer obs.stopProfile() // error paths; the success path stops it itself
	}
	root := tr.begin(0, "repeat")

	// Set-up: manager, handler, listener and the first session's 201, on a
	// fresh server every pass; the last one serves the run. Stopping the
	// previous pass's server is tear-down, not set-up, and is not timed.
	var sc *serveClient
	var events string
	var created []byte
	var err error
	res.SetupS, err = timeSetup(tr, func() (err error) {
		setup := tr.begin(root, "setup")
		sc = openServer(tr, setup, c)
		events, created, err = sc.create(seed, 1)
		tr.end(setup)
		return err
	}, func() { sc.close() })
	defer func() { sc.close() }() // whichever server is the last one opened
	if err != nil {
		return nil, err
	}

	runSpan := tr.begin(root, "run")
	t0 := time.Now()
	var reports strings.Builder
	var lags []float64
	var rows, rowBytes int
	for k := 1; k <= wanSessions; k++ {
		sc.parent = tr.begin(runSpan, "session")
		if k > 1 {
			if events, created, err = sc.create(seed, k); err != nil {
				return nil, err
			}
		}
		out, ts, lag, err := sc.session(k, events, created)
		if err != nil {
			return nil, err
		}
		tr.end(sc.parent)
		obs.sample()
		reports.WriteString(out.report)
		res.PollMS = append(res.PollMS, out.polls...)
		res.PktHops += out.hops
		lags = append(lags, lag)
		rows += ts.rows
		rowBytes += ts.bytes
	}
	res.WallS = time.Since(t0).Seconds()
	tr.end(runSpan)
	if err := obs.stopProfile(); err != nil {
		return nil, err
	}
	tr.end(root)
	res.ReportSHA = sha([]byte(reports.String()))
	c.ok(rows == wanSessions*int(wanHorizon/5), "serve_live: the trace streams carried %d rows, want %d", rows, wanSessions*int(wanHorizon/5))
	c.ok(len(res.PollMS) >= 600, "serve_live: only %d poll samples, want at least 600", len(res.PollMS))

	if tr != nil {
		spans := tr.finish()
		m := map[string]float64{}
		for _, kind := range serveRequests {
			m["serve.req_p50_ms."+kind] = median(spanDurationsMS(spans, "http "+kind))
		}
		m["poll_p50_ms"] = median(res.PollMS)
		m["poll_p95_ms"] = percentileOr0(res.PollMS, 0.95)
		m["serve.poll_p99_ms"] = percentileOr0(res.PollMS, 0.99)
		m["serve.trace_rows"] = float64(rows)
		m["serve.trace_bytes"] = float64(rowBytes)
		m["serve.trace_tail_lag_ms"] = median(lags)
		m["topology.pkt_hops"] = float64(res.PktHops)
		obs.runtimeMetrics(m, 0)
		if err := obs.cpuShareMetrics(m); err != nil {
			c.fail("%v", err)
		}
		res.Layer = m
	}
	return res, nil
}

// runServeTwin is the batch twin: each session's text with its injected
// blocks appended, parsed under the session's name, run in one call.
func runServeTwin(seed int64) (*childResult, error) {
	res := &childResult{}
	var reports strings.Builder
	t0 := time.Now()
	for k := 1; k <= wanSessions; k++ {
		base, events := genWAN(seed, k)
		f, err := ispn.ParseScenario(fmt.Sprintf("wan%d.ispn", k), []byte(base+events))
		if err != nil {
			return nil, fmt.Errorf("serve_live twin: %w", err)
		}
		s, err := ispn.CompileScenario(f, ispn.ScenarioOptions{})
		if err != nil {
			return nil, fmt.Errorf("serve_live twin: %w", err)
		}
		reports.WriteString(s.Run().Format())
		res.PktHops += pktHops(s.Net)
	}
	res.WallS = time.Since(t0).Seconds()
	res.ReportSHA = sha([]byte(reports.String()))
	return res, nil
}
