package serve

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"ispn/internal/scenario"
)

// Config adjusts a Manager.
type Config struct {
	// ScenarioDir is the library directory session requests may name
	// scenarios from ("" disables by-name loading; inline source always
	// works).
	ScenarioDir string
	// MaxSessions caps live sessions (0 = DefaultMaxSessions). A POST
	// beyond the cap is refused with 503 — sessions are real goroutines
	// simulating real networks, so the cap is the server's load limiter.
	MaxSessions int
}

// DefaultMaxSessions is the session cap when Config leaves it 0.
const DefaultMaxSessions = 16

// Manager owns the live sessions, keyed by id ("s1", "s2", ... in creation
// order — deterministic, so documentation examples can name them).
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	seq      int
	closed   bool
}

// NewManager returns an empty manager.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	return &Manager{cfg: cfg, sessions: make(map[string]*session)}
}

// CreateRequest is everything a new session needs, and the JSON body of
// POST /sessions. Exactly one of Scenario (a library name, no path or
// extension) and Source (inline .ispn text) must be set; the overrides
// mirror the CLI flags of `ispnsim run`.
type CreateRequest struct {
	Scenario string `json:"scenario,omitempty"`
	Source   string `json:"source,omitempty"`
	Name     string `json:"name,omitempty"` // report label; defaults to the scenario name or "inline"

	Seed    *int64  `json:"seed,omitempty"`    // override the file's Run seed (nil = file's own)
	Horizon float64 `json:"horizon,omitempty"` // override the file's Run horizon when positive
	Trace   float64 `json:"trace,omitempty"`   // trace interval override (seconds) when positive
	Check   bool    `json:"check,omitempty"`   // attach the invariant oracle

	Pace   float64 `json:"pace,omitempty"`   // simulated seconds per wall second; 0 = free run
	Paused bool    `json:"paused,omitempty"` // create paused (inject first, then resume)
}

var scenarioNameRe = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// Create compiles the scenario and starts its session goroutine.
func (m *Manager) Create(req CreateRequest) (*session, error) {
	var f *scenario.File
	var err error
	name := req.Name
	switch {
	case req.Scenario != "" && req.Source != "":
		return nil, fmt.Errorf("give either scenario or source, not both")
	case req.Scenario != "":
		if m.cfg.ScenarioDir == "" {
			return nil, fmt.Errorf("this server has no scenario library; send inline source instead")
		}
		if !scenarioNameRe.MatchString(req.Scenario) || req.Scenario == "." || req.Scenario == ".." {
			return nil, fmt.Errorf("bad scenario name %q", req.Scenario)
		}
		f, err = scenario.ParseFile(filepath.Join(m.cfg.ScenarioDir, req.Scenario+".ispn"))
		if name == "" {
			name = req.Scenario
		}
	case req.Source != "":
		if name == "" {
			name = "inline"
		}
		// The parse name sets the report's "scenario <name>" header — with
		// the same Name, a served inline run and a batch run of the same
		// text produce the same header (and so can be byte-compared).
		f, err = scenario.Parse(name+".ispn", []byte(req.Source))
	default:
		return nil, fmt.Errorf("need a scenario name or inline source")
	}
	if err != nil {
		return nil, err
	}
	sim, err := scenario.Compile(f, scenario.Options{
		Seed:    req.Seed,
		Horizon: req.Horizon,
		Trace:   req.Trace,
		Check:   req.Check,
	})
	if err != nil {
		return nil, err
	}
	if req.Pace < 0 {
		return nil, fmt.Errorf("pace must be >= 0 (simulated seconds per wall second; 0 = free run)")
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("server is shutting down")
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return nil, errTooManySessions
	}
	m.seq++
	id := fmt.Sprintf("s%d", m.seq)
	s := newSession(id, name, sim, req.Pace, req.Check, req.Paused)
	m.sessions[id] = s
	return s, nil
}

var errTooManySessions = fmt.Errorf("session limit reached; DELETE one first")

// Get returns the session with the given id, or nil.
func (m *Manager) Get(id string) *session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions[id]
}

// List returns every live session, ordered by id creation sequence.
func (m *Manager) List() []*session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i].id, out[j].id) })
	return out
}

// less orders "s2" before "s10".
func less(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// Delete stops a session and removes it. It reports whether the id existed.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return false
	}
	close(s.quit)
	<-s.done
	return true
}

// Close stops every session; new creations are refused afterwards. Safe to
// call more than once.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	all := make([]*session, 0, len(m.sessions))
	for id, s := range m.sessions {
		all = append(all, s)
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	for _, s := range all {
		close(s.quit)
	}
	for _, s := range all {
		<-s.done
	}
}
