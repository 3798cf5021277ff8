package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"ispn/internal/scenario"
)

// streamed is what one /trace stream delivered: its rows, when each was read
// and when the body hit EOF.
type streamed struct {
	rows []scenario.TraceRow
	at   []time.Time
	eof  time.Time
	err  error
}

// openStream creates a paused session, opens its NDJSON trace stream on a
// goroutine and returns once the handler has issued its two opening commands
// (the interval, the first batch of rows) — from there on it is parked on the
// session's news. The result arrives on the channel when the stream ends.
func openStream(t *testing.T, ts *httptest.Server, m *Manager, body createBody) (*session, <-chan streamed) {
	t.Helper()
	body.Paused = true
	var st status
	if code := call(t, "POST", ts.URL+"/sessions", body, &st); code != http.StatusCreated {
		t.Fatalf("create: code %d", code)
	}
	s := m.Get(st.ID)
	opened := s.dos.Load() + 2
	out := make(chan streamed, 1)
	go func() {
		var got streamed
		defer func() { got.eof = time.Now(); out <- got }()
		resp, err := http.Get(ts.URL + "/sessions/" + st.ID + "/trace")
		if err != nil {
			got.err = err
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var row scenario.TraceRow
			if got.err = json.Unmarshal(sc.Bytes(), &row); got.err != nil {
				return
			}
			got.rows = append(got.rows, row)
			got.at = append(got.at, time.Now())
		}
		got.err = sc.Err()
	}()
	for deadline := time.Now().Add(10 * time.Second); s.dos.Load() < opened; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("trace stream of %s never reached its session", st.ID)
		}
	}
	return s, out
}

// await returns the finished stream, failing the test if it errs or hangs.
func await(t *testing.T, out <-chan streamed) streamed {
	t.Helper()
	select {
	case got := <-out:
		if got.err != nil {
			t.Fatalf("trace stream: %v", got.err)
		}
		return got
	case <-time.After(30 * time.Second):
		t.Fatal("trace stream never ended")
		return streamed{}
	}
}

// TestTraceStreamEndsWithSession: a stream is told of news, it does not poll
// for it. Free-running sessions end their streams as their status turns
// "done" (a 50 ms poll ended them 25 ms later in the median), and a paced
// session's rows arrive as their intervals complete.
func TestTraceStreamEndsWithSession(t *testing.T) {
	ts, m := newTestServer(t)
	const sessions = 20
	gaps := make([]time.Duration, 0, sessions)
	for i := 0; i < sessions; i++ {
		s, out := openStream(t, ts, m, createBody{Source: identBase})
		url := ts.URL + "/sessions/" + s.id
		call(t, "POST", url, map[string]string{"action": "resume"}, nil)
		var done time.Time
		for deadline := time.Now().Add(30 * time.Second); done.IsZero(); {
			var st status
			call(t, "GET", url, nil, &st)
			if st.State == "done" {
				done = time.Now()
			} else if time.Now().After(deadline) {
				t.Fatalf("session %s never finished", s.id)
			}
		}
		got := await(t, out)
		if len(got.rows) != 4 {
			t.Fatalf("session %s streamed %d rows, want 4", s.id, len(got.rows))
		}
		gaps = append(gaps, got.eof.Sub(done))
		call(t, "DELETE", url, nil, nil)
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	t.Logf("status done -> stream EOF: median %v, max %v", gaps[sessions/2], gaps[sessions-1])
	if gaps[sessions/2] >= 5*time.Millisecond {
		t.Errorf("median gap between status \"done\" and stream EOF is %v, want under 5ms", gaps[sessions/2])
	}

	// 20 simulated seconds per wall second: interval k ends k·100 ms after
	// the resume, and its row must follow within two step quanta.
	const pace = 20
	s, out := openStream(t, ts, m, createBody{Source: identBase, Pace: pace})
	resumed := time.Now() // no later than the session's own pacing basis
	call(t, "POST", ts.URL+"/sessions/"+s.id, map[string]string{"action": "resume"}, nil)
	got := await(t, out)
	if len(got.rows) != 4 {
		t.Fatalf("paced session streamed %d rows, want 4", len(got.rows))
	}
	limit := time.Duration(2 * wallQuantum * float64(time.Second))
	for k, row := range got.rows {
		due := resumed.Add(time.Duration(row.End / pace * float64(time.Second)))
		if late := got.at[k].Sub(due); late < 0 || late > limit {
			t.Errorf("row %d (interval ends at %vs) arrived %v after its interval's end, want within [0, %v]",
				k, row.End, late, limit)
		}
	}
}

// TestFinishActionEndsTraceStream: the finish action runs a paused session to
// its horizon inside one command; the stream parked on it must wake, deliver
// every row and end.
func TestFinishActionEndsTraceStream(t *testing.T) {
	ts, m := newTestServer(t)
	s, out := openStream(t, ts, m, createBody{Source: identBase})
	var st status
	call(t, "POST", ts.URL+"/sessions/"+s.id, map[string]string{"action": "finish"}, &st)
	if st.State != "done" {
		t.Fatalf("finish left the session %q", st.State)
	}
	got := await(t, out)
	if len(got.rows) != 4 {
		t.Fatalf("stream ended with %d rows, want all 4: %+v", len(got.rows), got.rows)
	}
	for i, row := range got.rows {
		if row.Interval != i {
			t.Errorf("row %d carries interval %d", i, row.Interval)
		}
	}
}

// TestPausedStreamIsQuiet: a stream on a paused session waits on a channel,
// not a timer — after its two opening commands it sends the actor nothing
// (the 50 ms poll sent four commands in 200 ms).
func TestPausedStreamIsQuiet(t *testing.T) {
	ts, m := newTestServer(t)
	s, out := openStream(t, ts, m, createBody{Source: smallSrc})
	opened := s.dos.Load()
	time.Sleep(200 * time.Millisecond)
	if n := s.dos.Load() - opened; n != 0 {
		t.Errorf("open stream on a paused session issued %d commands in 200ms, want 0", n)
	}
	call(t, "POST", ts.URL+"/sessions/"+s.id, map[string]string{"action": "finish"}, nil)
	if got := await(t, out); len(got.rows) != 2 {
		t.Fatalf("stream ended with %d rows, want 2", len(got.rows))
	}
}
