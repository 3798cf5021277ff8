// Package serve is the live control plane: an HTTP/JSON API hosting
// long-running simulations. A Manager keys sessions by id; each session owns
// one compiled scenario on its own goroutine and advances it in small steps,
// so every external touch — status, live stats, event injection — happens
// between steps, when the engine is parked. Injected events
// go through the scenario compiler's own timeline passes, so the wire format
// is the .ispn `at` block users already know, with the same diagnostics, and
// a served run with scripted injections reports byte-identically to the
// equivalent batch scenario.
package serve

import (
	"errors"
	"sync/atomic"
	"time"

	"ispn/internal/scenario"
)

const (
	// wallQuantum is one paced step's worth of wall time: a paced session
	// steps pace·wallQuantum simulated seconds at a time, each once the wall
	// clock reaches its end, so it steps ~20 times per wall second and
	// sleeps in between (serving commands meanwhile).
	wallQuantum = 0.05
	// freeRunQuanta divides a free-running session's horizon into this many
	// steps — command latency is one quantum of simulation.
	freeRunQuanta = 64
)

var errClosed = errors.New("session is closed")

// session hosts one simulation. The loop goroutine owns sim and every field
// below the channels; handlers reach them only through do(), which runs a
// closure between simulation steps.
type session struct {
	id      string
	name    string
	sim     *scenario.Sim
	pace    float64 // simulated seconds per wall second; 0 = free run
	check   bool
	created time.Time

	cmds chan func()   // handler closures, executed between steps
	quit chan struct{} // closed by the manager: stop now
	done chan struct{} // closed by the loop on exit
	dos  atomic.Int64  // commands submitted through do (tests count wake-ups)

	// Loop-owned state.
	paused    bool
	finished  bool
	news      chan struct{} // closed and replaced when trace rows complete or the run finishes
	traced    int           // completed trace intervals already announced on news
	report    *scenario.Report
	injected  int       // engine events scheduled through /events
	injectSeq int       // numbers injection sources for diagnostics
	steps     int       // simulation steps taken (tests count them)
	baseSim   float64   // pacing basis: sim clock ...
	baseWall  time.Time // ... and wall clock at the last resume
}

func newSession(id, name string, sim *scenario.Sim, pace float64, check, paused bool) *session {
	s := &session{
		id:      id,
		name:    name,
		sim:     sim,
		pace:    pace,
		check:   check,
		created: time.Now(),
		cmds:    make(chan func()),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		paused:  paused,
		news:    make(chan struct{}),
	}
	s.baseWall = s.created
	go s.loop()
	return s
}

// do runs fn on the session goroutine, between simulation steps, and waits
// for it. It fails only when the session has shut down.
func (s *session) do(fn func()) error {
	s.dos.Add(1)
	ack := make(chan struct{})
	select {
	case s.cmds <- func() { fn(); close(ack) }:
	case <-s.done:
		return errClosed
	}
	select {
	case <-ack:
		return nil
	case <-s.done:
		return errClosed
	}
}

// loop is the session actor: alternate between serving commands and
// advancing the simulation one bounded step at a time. Determinism needs no
// locks — the simulation only ever runs here, and commands only ever run
// here, so their interleaving is a clean sequence of step boundaries.
func (s *session) loop() {
	defer close(s.done)
	for {
		if s.paused || s.finished {
			select {
			case fn := <-s.cmds:
				fn()
			case <-s.quit:
				return
			}
			continue
		}
		// Drain any pending command before stepping, so injections land at
		// the earliest possible barrier.
		select {
		case fn := <-s.cmds:
			fn()
			continue
		case <-s.quit:
			return
		default:
		}
		now := s.sim.Now()
		target := s.sim.Horizon
		if s.pace > 0 {
			// One whole quantum, taken once the wall clock reaches its end.
			target = min(now+float64(s.pace*wallQuantum), target)
			due := s.baseWall.Add(time.Duration((target - s.baseSim) / s.pace * float64(time.Second)))
			if wait := time.Until(due); wait > 0 {
				// Ahead of the wall clock: sleep until it catches up, still
				// serving commands.
				select {
				case fn := <-s.cmds:
					fn()
				case <-time.After(wait):
				case <-s.quit:
					return
				}
				continue
			}
		} else if q := float64(s.sim.Horizon / freeRunQuanta); target > now+q {
			target = now + q
		}
		s.sim.StepTo(target)
		s.steps++
		if s.sim.Done() {
			s.finish()
		} else if d := s.sim.TraceDone(); d > s.traced {
			s.traced = d
			s.announce()
		}
	}
}

// announce wakes every trace stream: each picked news up in the same command
// that read its rows, so none can miss the close.
func (s *session) announce() {
	close(s.news)
	s.news = make(chan struct{})
}

// finish freezes the final report. Idempotent.
func (s *session) finish() {
	if s.finished {
		return
	}
	s.report = s.sim.Finish()
	s.finished = true
	s.announce()
}

// setPaused pauses or resumes; resuming rebases the pacing clock so paused
// wall time is not "owed".
func (s *session) setPaused(p bool) {
	if s.paused == p {
		return
	}
	s.paused = p
	if !p {
		s.baseSim = s.sim.Now()
		s.baseWall = time.Now()
	}
}

// status is a loop-owned snapshot for the handlers.
type status struct {
	ID       string  `json:"id"`
	Scenario string  `json:"scenario"`
	State    string  `json:"status"` // "paused" | "running" | "done"
	SimTime  float64 `json:"sim_time"`
	Horizon  float64 `json:"horizon"`
	Seed     int64   `json:"seed"`
	Pace     float64 `json:"pace"`
	Check    bool    `json:"check"`
	TraceDt  float64 `json:"trace_interval"`
	WallMS   int64   `json:"wall_ms"`
	Injected int     `json:"events_injected"`

	// Admission is nil until a runtime request has been counted.
	Admission *scenario.AdmissionTotals `json:"admission,omitempty"`
}

func (s *session) status() status {
	st := status{
		ID:       s.id,
		Scenario: s.name,
		State:    "running",
		SimTime:  s.sim.Now(),
		Horizon:  s.sim.Horizon,
		Seed:     s.sim.Seed,
		Pace:     s.pace,
		Check:    s.check,
		TraceDt:  s.sim.TraceInterval(),
		WallMS:   time.Since(s.created).Milliseconds(),
		Injected: s.injected,
	}
	if adm := s.sim.Admission(); adm != (scenario.AdmissionTotals{}) {
		st.Admission = &adm
	}
	switch {
	case s.finished:
		st.State = "done"
	case s.paused:
		st.State = "paused"
	}
	return st
}
