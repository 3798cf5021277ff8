package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ispn/internal/scenario"
)

// identBase is the topology half of the byte-identity scenario: a four-hop
// chain with a backup path around B->C, admission and rerouting on, every
// link with real propagation delay.
const identBase = `net :: Net(rate 1Mbps, classes 2, targets [32ms, 320ms], admission on, routing auto)
run :: Run(seed 7, horizon 8s, trace 2s)
rr :: Reroute(cost delay)

A, B, C, D, E :: Switch
A -> B :: Link(delay 2ms)
B -> C :: Link(delay 2ms)
C -> D :: Link(delay 2ms)
B -> E :: Link(delay 2ms)
E -> C :: Link(delay 2ms)

circuit :: Guaranteed(rate 100kbps, bucket 50kbit, path A -> B -> C -> D)
tone :: CBR(rate 100pps, size 1000bit)
tone -> circuit

conf :: Predicted(rate 85kbps, bucket 50kbit, delay 2s, loss 1%, class 1, path A -> B -> C -> D)
cam :: Markov(peak 170pps, avg 85pps, burst 5, size 1000bit)
cam -> conf
`

// identEvents is the timeline half: the exact text a batch scenario appends
// as at blocks and a served session injects over POST /events — every verb
// the API supports, plus a mid-run flow arrival with its source.
const identEvents = `at 2s { fail B -> C }
at 3s {
  late :: Datagram(path A -> B -> E -> C -> D)
  drip :: Poisson(rate 50pps, size 1000bit)
  drip -> late
}
at 5s { restore B -> C }
at 6s { renew circuit (rate 150kbps) }
at 7s { reroute B -> E }
`

// smallSrc is a minimal fast scenario for lifecycle tests.
const smallSrc = `net :: Net(rate 1Mbps)
run :: Run(seed 3, horizon 2s, trace 1s)
A, B :: Switch
A -> B :: Link(delay 1ms)
d :: Datagram(path A -> B)
c :: CBR(rate 50pps, size 1000bit)
c -> d
`

// withShards writes shards n into src's Net line, which must close the
// first line of src; n 0 returns src as written.
func withShards(src string, n int) string {
	if n == 0 {
		return src
	}
	net, rest, _ := strings.Cut(src, ")\n")
	return fmt.Sprintf("%s, shards %d)\n%s", net, n, rest)
}

func newTestServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(Config{ScenarioDir: "../../scenarios"})
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(func() { ts.Close(); m.Close() })
	return ts, m
}

// call sends one JSON request and decodes the JSON response into out (when
// out is non-nil), returning the status code.
func call(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case string:
		rd = strings.NewReader(b)
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

// text does a GET and returns the raw body.
func text(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

func TestSessionLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)

	var st status
	if code := call(t, "POST", ts.URL+"/sessions",
		CreateRequest{Source: smallSrc, Name: "small", Paused: true}, &st); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if st.ID != "s1" || st.State != "paused" || st.Scenario != "small" {
		t.Fatalf("create status = %+v", st)
	}
	if st.Horizon != 2 || st.Seed != 3 || st.TraceDt != 1 {
		t.Fatalf("file knobs not reflected: %+v", st)
	}

	if code := call(t, "GET", ts.URL+"/sessions/s1", nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.SimTime != 0 {
		t.Fatalf("paused session advanced to %v", st.SimTime)
	}

	// The report is refused until the run finishes.
	if code, body := text(t, ts.URL+"/sessions/s1/report"); code != http.StatusConflict {
		t.Fatalf("early report: status %d body %q", code, body)
	}

	if code := call(t, "POST", ts.URL+"/sessions/s1",
		map[string]string{"action": "finish"}, &st); code != http.StatusOK {
		t.Fatalf("finish: %d", code)
	}
	if st.State != "done" || st.SimTime != 2 {
		t.Fatalf("after finish: %+v", st)
	}

	code, rep := text(t, ts.URL+"/sessions/s1/report")
	if code != http.StatusOK || !strings.Contains(rep, "scenario small: 2s simulated, seed 3") {
		t.Fatalf("report: status %d\n%s", code, rep)
	}

	var del map[string]string
	if code := call(t, "DELETE", ts.URL+"/sessions/s1", nil, &del); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code := call(t, "GET", ts.URL+"/sessions/s1", nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session still answers: %d", code)
	}
}

func TestCreateValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name string
		body any
		want int
		says string // part of the error message, when it matters
	}{
		{"no input", CreateRequest{}, http.StatusUnprocessableEntity, ""},
		{"both inputs", CreateRequest{Scenario: "failover", Source: smallSrc}, http.StatusUnprocessableEntity, ""},
		{"path traversal", CreateRequest{Scenario: "../failover"}, http.StatusUnprocessableEntity, ""},
		{"unknown field", map[string]any{"sauce": smallSrc}, http.StatusBadRequest, `unknown field "sauce"`},
		{"bad source", CreateRequest{Source: "net :: Nut()"}, http.StatusUnprocessableEntity, ""},
		{"negative pace", CreateRequest{Source: smallSrc, Pace: -1}, http.StatusUnprocessableEntity, ""},
	}
	for _, tc := range cases {
		var e map[string]string
		if code := call(t, "POST", ts.URL+"/sessions", tc.body, &e); code != tc.want {
			t.Errorf("%s: status %d (want %d), error %q", tc.name, code, tc.want, e["error"])
		} else if e["error"] == "" || !strings.Contains(e["error"], tc.says) {
			t.Errorf("%s: error %q, want one that says %q", tc.name, e["error"], tc.says)
		}
	}
}

func TestCreateFromLibrary(t *testing.T) {
	ts, _ := newTestServer(t)
	var st status
	if code := call(t, "POST", ts.URL+"/sessions",
		CreateRequest{Scenario: "failover", Horizon: 5}, &st); code != http.StatusCreated {
		t.Fatalf("create from library: %d", code)
	}
	if st.Scenario != "failover" || st.Horizon != 5 {
		t.Fatalf("status = %+v", st)
	}
	call(t, "POST", ts.URL+"/sessions/"+st.ID, map[string]string{"action": "finish"}, &st)
	_, rep := text(t, ts.URL+"/sessions/"+st.ID+"/report")
	if !strings.Contains(rep, "scenario failover: 5s simulated") {
		t.Fatalf("library report header wrong:\n%s", rep)
	}

	// The wire keys, spelled out: CreateRequest is the body's type, so a
	// renamed tag must fail here, not only at a client.
	raw := `{"scenario": "failover", "name": "wire", "seed": 7, "horizon": 5, "trace": 1,
		"check": true, "pace": 2, "paused": true}`
	if code := call(t, "POST", ts.URL+"/sessions", raw, &st); code != http.StatusCreated {
		t.Fatalf("create with every key: %d", code)
	}
	if st.Scenario != "wire" || st.Seed != 7 || st.Horizon != 5 || st.TraceDt != 1 ||
		!st.Check || st.Pace != 2 || st.State != "paused" {
		t.Fatalf("status after a create with every key = %+v", st)
	}
}

func TestLiveFlowsAndLinks(t *testing.T) {
	ts, _ := newTestServer(t)
	var st status
	call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: smallSrc, Paused: true}, &st)
	id := st.ID
	call(t, "POST", ts.URL+"/sessions/"+id, map[string]string{"action": "finish"}, &st)

	var flows struct {
		SimTime float64               `json:"sim_time"`
		Flows   []scenario.FlowReport `json:"flows"`
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+id+"/flows", nil, &flows); code != http.StatusOK {
		t.Fatalf("flows: %d", code)
	}
	if len(flows.Flows) != 1 || flows.Flows[0].Name != "d" || flows.Flows[0].Delivered == 0 {
		t.Fatalf("flows = %+v", flows)
	}

	var links struct {
		SimTime float64                 `json:"sim_time"`
		Links   []scenario.LinkSnapshot `json:"links"`
	}
	if code := call(t, "GET", ts.URL+"/sessions/"+id+"/links", nil, &links); code != http.StatusOK {
		t.Fatalf("links: %d", code)
	}
	if len(links.Links) == 0 {
		t.Fatal("no links reported")
	}
	var sawTraffic bool
	for _, l := range links.Links {
		if l.TxPackets > 0 {
			sawTraffic = true
		}
	}
	if !sawTraffic {
		t.Fatalf("no link carried traffic: %+v", links.Links)
	}
}

// TestInjectDiagnostics exercises the compiler-grade error reporting of
// POST /events: bad verbs, unknown names, past and beyond-horizon times all
// come back as 422 with file:line:col positions, and a failed injection
// rolls back completely (the next good one still works).
func TestInjectDiagnostics(t *testing.T) {
	ts, _ := newTestServer(t)
	var st status
	call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: identBase, Name: "diag", Paused: true}, &st)
	id := st.ID
	url := ts.URL + "/sessions/" + id + "/events"

	bad := []struct {
		name, src, want string
	}{
		{"bad verb", "at 1s { explode B -> C }", "an event verb"},
		{"unknown flow", "at 1s { remove ghost }", `unknown name "ghost" in a remove`},
		{"beyond horizon", "at 99s { fail B -> C }", "beyond the 8s horizon"},
		{"no such link", "at 1s { fail A -> D }", "no link A -> D is declared"},
		{"top-level decl", "x :: Switch", "may contain only at blocks"},
		{"empty renew", "at 1s { renew circuit () }", "renew changes nothing"},
	}
	for i, tc := range bad {
		var e map[string]string
		if code := call(t, "POST", url, tc.src, &e); code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, error %q", tc.name, code, e["error"])
			continue
		}
		if !strings.Contains(e["error"], tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, e["error"], tc.want)
		}
		// Positions name the injected source, numbered per attempt.
		if wantPos := fmt.Sprintf("%s-inject-%d.ispn:1:", id, i+1); !strings.Contains(e["error"], wantPos) {
			t.Errorf("%s: error %q lacks position prefix %q", tc.name, e["error"], wantPos)
		}
	}

	// After all those failures, a good injection still lands.
	var ok struct {
		Scheduled int `json:"scheduled"`
	}
	if code := call(t, "POST", url, "at 2s { fail B -> C }", &ok); code != http.StatusOK || ok.Scheduled != 1 {
		t.Fatalf("good injection after failures: code %d, %+v", code, ok)
	}

	// A paced session (2 simulated seconds per wall second) runs slowly
	// enough to pause mid-flight; an event before the live clock must be
	// refused with a clock-position diagnostic.
	var st2 status
	call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: identBase, Name: "paced", Pace: 2}, &st2)
	waitSimTime(t, ts.URL, st2.ID, 4)
	call(t, "POST", ts.URL+"/sessions/"+st2.ID, map[string]string{"action": "pause"}, nil)
	var e map[string]string
	url2 := ts.URL + "/sessions/" + st2.ID + "/events"
	if code := call(t, "POST", url2, "at 1s { fail B -> C }", &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("past injection accepted: %d (%q)", code, e["error"])
	}
	if !strings.Contains(e["error"], "in the past") {
		t.Fatalf("past diagnostic unclear: %q", e["error"])
	}

	// Finished sessions refuse events outright.
	call(t, "POST", ts.URL+"/sessions/"+st2.ID, map[string]string{"action": "finish"}, nil)
	if code := call(t, "POST", url2, "at 8s { fail B -> C }", &e); code != http.StatusConflict {
		t.Fatalf("injection into a done session: %d", code)
	}
}

// TestLoopedPathInjectionIsARejection injects a guaranteed arrival whose path
// crosses A->B twice. That request used to panic in the scheduler's flow
// table on the session goroutine — which has no recover, so one POST took
// down the process and every session in it. It must be an ordinary rejected
// flow: the session runs on to its horizon and its neighbour's report is
// the batch run's, byte for byte.
func TestLoopedPathInjectionIsARejection(t *testing.T) {
	const src = "run :: Run(seed 5, horizon 2s)\nA, B :: Switch\nA <-> B\n" +
		"d :: Datagram(path A -> B)\nc :: CBR(rate 50pps, size 1000bit)\nc -> d\n"
	f, err := scenario.Parse("loop.ispn", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := scenario.Compile(f, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := sim.Run().Format()

	ts, _ := newTestServer(t)
	var victim, neighbour status
	for _, st := range []*status{&victim, &neighbour} {
		if code := call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: src, Name: "loop", Paused: true}, st); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
	}
	if code := call(t, "POST", ts.URL+"/sessions/"+victim.ID+"/events",
		"at 1s { c2 :: Guaranteed(rate 100kbps, bucket 50kbit, path A -> B -> A -> B) }", nil); code != http.StatusOK {
		t.Fatalf("inject: %d", code)
	}
	for _, st := range []*status{&victim, &neighbour} {
		if code := call(t, "POST", ts.URL+"/sessions/"+st.ID, map[string]string{"action": "finish"}, st); code != http.StatusOK || st.State != "done" {
			t.Fatalf("finish %s: %d, state %q", st.ID, code, st.State)
		}
	}
	if adm := victim.Admission; adm == nil || *adm != (scenario.AdmissionTotals{Requested: 1, Rejected: 1}) {
		t.Fatalf("victim admission = %+v, want 1 requested / 1 rejected", adm)
	}
	var flows struct {
		Flows []scenario.FlowReport `json:"flows"`
	}
	call(t, "GET", ts.URL+"/sessions/"+victim.ID+"/flows", nil, &flows)
	if n := len(flows.Flows); n != 2 || !flows.Flows[1].Rejected || !strings.Contains(flows.Flows[1].Reason, "crosses link A->B twice") {
		t.Fatalf("victim flows = %+v, want c2 rejected with the reason", flows.Flows)
	}
	if code, served := text(t, ts.URL+"/sessions/"+neighbour.ID+"/report"); code != http.StatusOK || served != batch {
		t.Errorf("neighbour report (%d) differs from batch: %s", code, firstDiff(batch, served))
	}
}

// TestTCPInjectionIsRefused injects a TCP connection. A TCP connection is
// declared only at the top level, so the injection is a positioned 422 and a
// neighbour session still finishes byte-identically to the batch run.
func TestTCPInjectionIsRefused(t *testing.T) {
	const src = "run :: Run(seed 5, horizon 2s)\nA, B, C, D :: Switch\n" +
		"A <-> B :: Link(delay 2ms)\nB <-> C :: Link(delay 2ms)\nC <-> D :: Link(delay 2ms)\n" +
		"d :: Datagram(path A -> B -> C -> D)\nc :: CBR(rate 50pps, size 1000bit)\nc -> d\n"
	f, err := scenario.Parse("tcp.ispn", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := scenario.Compile(f, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := sim.Run().Format()

	ts, _ := newTestServer(t)
	var victim, neighbour status
	for _, st := range []*status{&victim, &neighbour} {
		if code := call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: src, Name: "tcp", Paused: true}, st); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
	}
	var e map[string]string
	if code := call(t, "POST", ts.URL+"/sessions/"+victim.ID+"/events",
		"at 1s { w :: TCP(path A -> B -> C -> D) }", &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("inject: status %d, error %q", code, e["error"])
	}
	if want := victim.ID + "-inject-1.ispn:1:14: TCP cannot be declared inside an at block"; !strings.Contains(e["error"], want) {
		t.Errorf("inject error %q, want %q", e["error"], want)
	}
	for _, st := range []*status{&victim, &neighbour} {
		if code := call(t, "POST", ts.URL+"/sessions/"+st.ID, map[string]string{"action": "finish"}, st); code != http.StatusOK || st.State != "done" {
			t.Fatalf("finish %s: %d, state %q", st.ID, code, st.State)
		}
	}
	if code, served := text(t, ts.URL+"/sessions/"+neighbour.ID+"/report"); code != http.StatusOK || served != batch {
		t.Errorf("neighbour report (%d) differs from batch: %s", code, firstDiff(batch, served))
	}
}

// TestZeroDepthTokenBucketInjectionIsRefused injects a TokenBucket of depth
// 0. Compiling it used to panic in tokenbucket.New on the session actor,
// which has no recover, and take the server down. It is a positioned 422
// now: the session it was sent to runs on to its horizon as if nothing was
// sent, and its neighbour's report is byte-identical to the batch run.
func TestZeroDepthTokenBucketInjectionIsRefused(t *testing.T) {
	f, err := scenario.Parse("tb.ispn", []byte(smallSrc))
	if err != nil {
		t.Fatal(err)
	}
	sim, err := scenario.Compile(f, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch := sim.Run().Format()

	ts, _ := newTestServer(t)
	var victim, neighbour status
	for _, st := range []*status{&victim, &neighbour} {
		if code := call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: smallSrc, Name: "tb", Paused: true}, st); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
	}
	var e map[string]string
	if code := call(t, "POST", ts.URL+"/sessions/"+victim.ID+"/events",
		"at 1s {\n  c2 :: CBR(rate 10pps)\n  tb :: TokenBucket(rate 10pps, depth 0)\n  c2 -> tb -> d\n}", &e); code != http.StatusUnprocessableEntity {
		t.Fatalf("inject: status %d, error %q", code, e["error"])
	}
	if want := victim.ID + "-inject-1.ispn:3:39: TokenBucket requires a depth of at least 1 packet"; !strings.Contains(e["error"], want) {
		t.Errorf("inject error %q, want %q", e["error"], want)
	}
	call(t, "POST", ts.URL+"/sessions/"+victim.ID, map[string]string{"action": "resume"}, nil)
	waitSimTime(t, ts.URL, victim.ID, 1)
	for _, st := range []*status{&victim, &neighbour} {
		if code := call(t, "POST", ts.URL+"/sessions/"+st.ID, map[string]string{"action": "finish"}, st); code != http.StatusOK || st.State != "done" {
			t.Fatalf("finish %s: %d, state %q", st.ID, code, st.State)
		}
		if code, served := text(t, ts.URL+"/sessions/"+st.ID+"/report"); code != http.StatusOK || served != batch {
			t.Errorf("session %s report (%d) differs from batch: %s", st.ID, code, firstDiff(batch, served))
		}
	}
}

// TestPacedSessionSleepsBetweenQuanta: a paced session steps one whole
// quantum per wallQuantum of wall time and sleeps in between, instead of
// chasing the wall clock in steps that end exactly where it stands.
func TestPacedSessionSleepsBetweenQuanta(t *testing.T) {
	ts, m := newTestServer(t)
	var st status
	call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: identBase, Pace: 1, Paused: true}, &st)
	s := m.Get(st.ID)
	resumed := time.Now()
	call(t, "POST", ts.URL+"/sessions/"+st.ID, map[string]string{"action": "resume"}, nil)
	time.Sleep(500 * time.Millisecond)
	var steps int
	var now float64
	if err := s.do(func() { steps, now = s.steps, s.sim.Now() }); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(resumed).Seconds()
	t.Logf("%d steps to sim time %.3fs in %.3fs of wall time", steps, now, wall)
	if limit := int(wall/wallQuantum) + 2; steps > limit || steps < 3 {
		t.Fatalf("paced session took %d steps in %.3fs of wall time, want 3 to %d", steps, wall, limit)
	}
	if now > wall {
		t.Fatalf("paced session at sim time %.3fs ran ahead of %.3fs of wall time", now, wall)
	}
}

// waitSimTime polls status until the simulation clock reaches tmin.
func waitSimTime(t *testing.T, base, id string, tmin float64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st status
		call(t, "GET", base+"/sessions/"+id, nil, &st)
		if st.SimTime >= tmin || st.State == "done" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never reached sim time %v", id, tmin)
}

// TestServedInjectionMatchesBatch is the headline determinism test: a served
// session that receives its whole timeline over POST /events must produce a
// final report byte-identical to a batch run of the same scenario with the
// same verbs written as at blocks — as written and with Net(shards 1) and
// Net(shards 4), an argument that is checked and then ignored.
func TestServedInjectionMatchesBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := withShards(identBase, shards)
			f, err := scenario.Parse("ident.ispn", []byte(base+identEvents))
			if err != nil {
				t.Fatalf("parse batch: %v", err)
			}
			sim, err := scenario.Compile(f, scenario.Options{})
			if err != nil {
				t.Fatalf("compile batch: %v", err)
			}
			batch := sim.Run().Format()
			if !strings.Contains(batch, "late") {
				t.Fatalf("batch run lost the injected-arrival flow:\n%s", batch)
			}

			var st status
			if code := call(t, "POST", ts.URL+"/sessions",
				CreateRequest{Source: base, Name: "ident", Paused: true}, &st); code != http.StatusCreated {
				t.Fatalf("create: %d", code)
			}
			id := st.ID
			var ok struct {
				Scheduled int `json:"scheduled"`
			}
			if code := call(t, "POST", ts.URL+"/sessions/"+id+"/events", identEvents, &ok); code != http.StatusOK {
				t.Fatalf("inject: %d", code)
			}
			if ok.Scheduled == 0 {
				t.Fatal("nothing scheduled")
			}
			call(t, "POST", ts.URL+"/sessions/"+id, map[string]string{"action": "finish"}, &st)
			code, served := text(t, ts.URL+"/sessions/"+id+"/report")
			if code != http.StatusOK {
				t.Fatalf("report: %d", code)
			}
			if served != batch {
				t.Errorf("served report differs from batch: %s", firstDiff(batch, served))
			}
			call(t, "DELETE", ts.URL+"/sessions/"+id, nil, nil)
		})
	}
}

// TestSteppedFreeRunMatchesBatch drives the same scenario through the
// session loop's incremental StepTo quanta (resume + poll) instead of one
// shot, proving the actor's segmented execution is equally bit-identical.
func TestSteppedFreeRunMatchesBatch(t *testing.T) {
	f, err := scenario.Parse("ident.ispn", []byte(identBase+identEvents))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sim, err := scenario.Compile(f, scenario.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	batch := sim.Run().Format()

	ts, _ := newTestServer(t)
	var st status
	call(t, "POST", ts.URL+"/sessions",
		CreateRequest{Source: identBase, Name: "ident", Paused: true}, &st)
	id := st.ID
	if code := call(t, "POST", ts.URL+"/sessions/"+id+"/events", identEvents, nil); code != http.StatusOK {
		t.Fatalf("inject: %d", code)
	}
	call(t, "POST", ts.URL+"/sessions/"+id, map[string]string{"action": "resume"}, nil)
	waitSimTime(t, ts.URL, id, 8)
	// Reaching the horizon flips the session to done; the report follows.
	deadline := time.Now().Add(10 * time.Second)
	for {
		call(t, "GET", ts.URL+"/sessions/"+id, nil, &st)
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, served := text(t, ts.URL+"/sessions/"+id+"/report")
	if served != batch {
		t.Errorf("stepped served report differs from batch: %s", firstDiff(batch, served))
	}
}

// TestConcurrentSessions runs several sessions at once with distinct seeds:
// same scenario text, independent engines, different (and internally
// deterministic) results.
func TestConcurrentSessions(t *testing.T) {
	ts, _ := newTestServer(t)
	seeds := []int64{1, 2, 3, 4}
	ids := make([]string, len(seeds))
	for i, seed := range seeds {
		s := seed
		var st status
		if code := call(t, "POST", ts.URL+"/sessions",
			CreateRequest{Source: identBase, Name: "conc", Seed: &s}, &st); code != http.StatusCreated {
			t.Fatalf("create seed %d: %d", seed, code)
		}
		ids[i] = st.ID
	}
	done := make(chan string, len(ids))
	for _, id := range ids {
		go func(id string) {
			var st status
			call(t, "POST", ts.URL+"/sessions/"+id, map[string]string{"action": "finish"}, &st)
			_, rep := text(t, ts.URL+"/sessions/"+id+"/report")
			done <- rep
		}(id)
	}
	reports := make(map[string]bool)
	for range ids {
		reports[<-done] = true
	}
	if len(reports) != len(seeds) {
		t.Errorf("expected %d distinct reports from distinct seeds, got %d", len(seeds), len(reports))
	}
	for rep := range reports {
		if !strings.Contains(rep, "scenario conc: 8s simulated") {
			t.Errorf("report header wrong:\n%s", rep)
		}
	}
	var list struct {
		Sessions []status `json:"sessions"`
	}
	call(t, "GET", ts.URL+"/sessions", nil, &list)
	if len(list.Sessions) != len(seeds) {
		t.Errorf("list shows %d sessions, want %d", len(list.Sessions), len(seeds))
	}
}

// TestTraceStream reads the NDJSON trace of a free-running session to
// completion, checking the rows are the report's trace rows in order.
func TestTraceStream(t *testing.T) {
	ts, _ := newTestServer(t)
	var st status
	call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: identBase, Name: "traced"}, &st)
	id := st.ID

	resp, err := http.Get(ts.URL + "/sessions/" + id + "/trace")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var rows []scenario.TraceRow
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var row scenario.TraceRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	// 8s horizon, 2s interval: exactly 4 full rows, in order.
	if len(rows) != 4 {
		t.Fatalf("got %d trace rows, want 4: %+v", len(rows), rows)
	}
	for i, row := range rows {
		if row.Interval != i || row.Start != float64(i)*2 || row.End != float64(i+1)*2 {
			t.Errorf("row %d malformed: %+v", i, row)
		}
	}
	if rows[0].Delivered == 0 {
		t.Error("first interval delivered nothing")
	}

	// ?from resumes mid-stream; sse=1 frames rows as SSE events.
	code, body := text(t, ts.URL+"/sessions/"+id+"/trace?from=3&sse=1")
	if code != http.StatusOK || !strings.HasPrefix(body, "data: ") {
		t.Fatalf("sse tail: code %d body %q", code, body)
	}
	if got := strings.Count(body, "data: "); got != 1 {
		t.Errorf("from=3 returned %d rows, want 1", got)
	}
}

// TestTraceRequiresInterval: a session without any trace interval gets a
// clear 409 from /trace.
func TestTraceRequiresInterval(t *testing.T) {
	ts, _ := newTestServer(t)
	src := strings.Replace(smallSrc, ", trace 1s", "", 1)
	var st status
	call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: src, Paused: true}, &st)
	code, body := text(t, ts.URL+"/sessions/"+st.ID+"/trace")
	if code != http.StatusConflict || !strings.Contains(body, "no trace") {
		t.Fatalf("traceless session: code %d body %q", code, body)
	}

	// The trace option turns rows on for a scenario that never asked.
	var st2 status
	call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: src, Trace: 1, Paused: true}, &st2)
	if st2.TraceDt != 1 {
		t.Fatalf("trace override ignored: %+v", st2)
	}
}

// TestSessionCap: the manager refuses sessions beyond MaxSessions with 503.
func TestSessionCap(t *testing.T) {
	m := NewManager(Config{MaxSessions: 1})
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	defer m.Close()

	var st status
	if code := call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: smallSrc, Paused: true}, &st); code != http.StatusCreated {
		t.Fatalf("first create: %d", code)
	}
	if code := call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: smallSrc, Paused: true}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap create: %d", code)
	}
	call(t, "DELETE", ts.URL+"/sessions/s1", nil, nil)
	if code := call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: smallSrc, Paused: true}, nil); code != http.StatusCreated {
		t.Fatalf("create after delete: %d", code)
	}
}

// TestCheckedSession runs a session under the invariant oracle and expects
// the report's invariants section with zero violations.
func TestCheckedSession(t *testing.T) {
	ts, _ := newTestServer(t)
	var st status
	call(t, "POST", ts.URL+"/sessions", CreateRequest{Source: smallSrc, Check: true, Paused: true}, &st)
	if !st.Check {
		t.Fatalf("check flag lost: %+v", st)
	}
	call(t, "POST", ts.URL+"/sessions/"+st.ID, map[string]string{"action": "finish"}, nil)
	_, rep := text(t, ts.URL+"/sessions/"+st.ID+"/report")
	if !strings.Contains(rep, "invariants:") || !strings.Contains(rep, "0 violation(s)") {
		t.Fatalf("checked report lacks a clean invariants section:\n%s", rep)
	}
}

// firstDiff renders the first differing line of two reports.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  batch:  %q\n  served: %q", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
