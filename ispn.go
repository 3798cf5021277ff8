// Package ispn is a Go implementation of the Integrated Services Packet
// Network architecture of Clark, Shenker and Zhang, "Supporting Real-Time
// Applications in an Integrated Services Packet Network: Architecture and
// Mechanism" (SIGCOMM 1992).
//
// The library provides the paper's three service commitments over a
// discrete-event network simulator:
//
//   - Guaranteed service: a flow reserves a clock rate r at every switch on
//     its path; weighted fair queueing isolates it from all other traffic
//     and its worst-case queueing delay obeys the Parekh-Gallager bound
//     computed from its token bucket depth b(r).
//   - Predicted service: a flow declares a token bucket (r, b) — enforced
//     once, at the network edge — and a delay/loss target (D, L) that maps
//     it to a priority class. Inside each class, FIFO+ shares jitter across
//     the aggregate and correlates that sharing across hops through a
//     jitter-offset packet header field, so the post-facto delay bound the
//     adaptive application observes stays far below the a priori bound.
//   - Datagram service: best effort below every real-time class.
//
// Every link runs the paper's unified scheduler: WFQ between guaranteed
// flows and a pseudo "flow 0" carrying the strict-priority FIFO+ classes
// plus datagram traffic.
//
// The package Example (example_test.go) is a compiled, output-checked quick
// start. See examples/ for runnable scenarios and internal/experiments for
// the reproduction of the paper's Tables 1-3.
package ispn

import (
	"ispn/internal/core"
	"ispn/internal/packet"
	"ispn/internal/playback"
	"ispn/internal/scenario"
	"ispn/internal/sched"
	"ispn/internal/serve"
	"ispn/internal/sim"
	"ispn/internal/source"
	"ispn/internal/stats"
	"ispn/internal/tcp"
)

// Core architecture types.
type (
	// Config parameterizes a network (link rate, admission control, the
	// default per-port Profile, ...).
	Config = core.Config
	// Network is an ISPN instance.
	Network = core.Network
	// Flow is an admitted flow with its meter and injection point.
	Flow = core.Flow
	// Member is a lightweight handle on one predicted flow inside an
	// aggregate (Network.RequestPredictedMember): flows that share a
	// (class, path) ride one carrier Flow, each with its own policer. A
	// handle dies at Release: drop it, its slot goes to the next member.
	Member = core.Member
	// GuaranteedSpec is the guaranteed-service request (clock rate r).
	GuaranteedSpec = core.GuaranteedSpec
	// PredictedSpec is the predicted-service request (r, b, D, L).
	PredictedSpec = core.PredictedSpec
	// SharingMode selects the intra-class sharing discipline.
	SharingMode = sched.Sharing
	// RoutingConfig configures failure-aware rerouting (pass to
	// Network.SetRouting): automatic reroute on FailLink, and the link
	// cost (hops/delay) shortest paths minimize.
	RoutingConfig = core.RoutingConfig
	// Profile is a per-port scheduling profile: discipline kind, sharing
	// mode, class targets and datagram quota. Pass one to
	// Network.ConnectWith to deploy heterogeneous pipelines link by link.
	Profile = sched.Profile
	// Packet is the simulated packet.
	Packet = packet.Packet
	// Engine is the discrete-event engine driving a network.
	Engine = sim.Engine
	// RNG is a deterministic random stream.
	RNG = sim.RNG
	// DelayRecorder accumulates delay samples with exact percentiles.
	DelayRecorder = stats.Recorder
)

// Sharing modes (ablations; the paper's design is SharingFIFOPlus).
const (
	SharingFIFOPlus = sched.SharingFIFOPlus
	SharingFIFO     = sched.SharingFIFO
	SharingRR       = sched.SharingRoundRobin
)

// Per-port pipeline kinds for Profile.Kind.
const (
	KindUnified      = sched.KindUnified
	KindWFQ          = sched.KindWFQ
	KindFIFO         = sched.KindFIFO
	KindFIFOPlus     = sched.KindFIFOPlus
	KindVirtualClock = sched.KindVirtualClock
	KindDRR          = sched.KindDRR
)

// NoDatagramQuota is the Profile.DatagramQuota sentinel meaning "reserve
// nothing for datagram traffic" (the zero value means "use the paper's
// default 10%").
const NoDatagramQuota = sched.NoDatagramQuota

// PipelineKinds returns the registered per-port pipeline kind names.
func PipelineKinds() []string { return sched.PipelineKinds() }

// Service classes.
const (
	Guaranteed = packet.Guaranteed
	Predicted  = packet.Predicted
	Datagram   = packet.Datagram
)

// New creates a network whose links run cfg.Profile (unified by default).
func New(cfg Config) *Network { return core.New(cfg) }

// PGBound is the Parekh-Gallager queueing-delay bound as the paper prints
// it: b/r + (K−1)·Lmax/r for a K-hop path.
func PGBound(bucketBits, rateBits float64, hops int, maxPktBits float64) float64 {
	return core.PGBound(bucketBits, rateBits, hops, maxPktBits)
}

// PGBoundPacketized adds Parekh's per-hop non-preemption term K·Lmax/µ.
func PGBoundPacketized(bucketBits, rateBits float64, hops int, maxPktBits, linkRate float64) float64 {
	return core.PGBoundPacketized(bucketBits, rateBits, hops, maxPktBits, linkRate)
}

// Traffic sources.
type (
	// Source generates packets into a flow.
	Source = source.Source
	// MarkovConfig parameterizes the paper's two-state on/off source.
	MarkovConfig = source.MarkovConfig
	// CBRConfig parameterizes a constant-bit-rate source.
	CBRConfig = source.CBRConfig
	// PoissonConfig parameterizes a Poisson source.
	PoissonConfig = source.PoissonConfig
)

// NewMarkovSource builds the paper's two-state Markov on/off source.
func NewMarkovSource(cfg MarkovConfig) *source.Markov { return source.NewMarkov(cfg) }

// NewCBRSource builds a constant-bit-rate source.
func NewCBRSource(cfg CBRConfig) *source.CBR { return source.NewCBR(cfg) }

// NewPoissonSource builds a Poisson source.
func NewPoissonSource(cfg PoissonConfig) *source.Poisson { return source.NewPoisson(cfg) }

// NewPolicedSource wraps src with a source-side token bucket (rate in
// packets/second, depth in packets), dropping nonconforming packets — the
// paper's (A, 50) host filter.
func NewPolicedSource(src Source, rate, depth float64) *source.Policed {
	return source.NewPoliced(src, rate, depth)
}

// StartSource attaches src to a flow: generated packets are allocated from
// the flow's ingress packet pool and injected at the flow's first switch
// (subject to the flow's edge policing). The source runs on the network's
// engine.
func StartSource(n *Network, src Source, f *Flow) {
	source.AttachPool(src, f.IngressPool())
	src.Start(n.Engine(), func(p *Packet) { f.Inject(p) })
}

// TCP (datagram substrate).
type (
	// TCPConfig parameterizes a Reno-style TCP connection.
	TCPConfig = tcp.Config
	// TCPConnection is a greedy sender/receiver pair.
	TCPConnection = tcp.Connection
)

// NewTCP wires a TCP connection through the network; call Start on the
// result.
func NewTCP(n *Network, cfg TCPConfig) *TCPConnection {
	return tcp.NewConnection(n.Topology(), cfg)
}

// Playback clients (Section 2 applications).
type (
	// PlaybackClient consumes per-packet delays against a play-back
	// point.
	PlaybackClient = playback.Client
	// AdaptiveConfig parameterizes an adaptive play-back client.
	AdaptiveConfig = playback.AdaptiveConfig
)

// NewRigidClient returns a play-back client pinned at the given point.
func NewRigidClient(point float64) *playback.Rigid { return playback.NewRigid(point) }

// NewAdaptiveClient returns a play-back client that tracks the measured
// delay percentile matching its loss tolerance.
func NewAdaptiveClient(cfg AdaptiveConfig) *playback.Adaptive { return playback.NewAdaptive(cfg) }

// DeriveRNG returns a deterministic named random stream.
func DeriveRNG(seed int64, name string) *RNG { return sim.DeriveRNG(seed, name) }

// Declarative scenarios (.ispn files; see docs/SCENARIO.md for the format).
type (
	// ScenarioFile is a parsed .ispn file.
	ScenarioFile = scenario.File
	// ScenarioSim is a compiled, runnable scenario.
	ScenarioSim = scenario.Sim
	// ScenarioReport is the result of one scenario run.
	ScenarioReport = scenario.Report
	// ScenarioOptions overrides a scenario's seed or horizon.
	ScenarioOptions = scenario.Options
)

// ParseScenario parses .ispn source; name labels file:line:col diagnostics.
func ParseScenario(name string, src []byte) (*ScenarioFile, error) {
	return scenario.Parse(name, src)
}

// CompileScenario validates a parsed scenario and lowers it onto a fresh
// Network; call Run on the result.
func CompileScenario(f *ScenarioFile, opts ScenarioOptions) (*ScenarioSim, error) {
	return scenario.Compile(f, opts)
}

// LoadScenario reads, parses and compiles one .ispn file.
func LoadScenario(path string, opts ScenarioOptions) (*ScenarioSim, error) {
	return scenario.Load(path, opts)
}

// Live control plane (`ispnsim serve`; API reference in docs/SERVE.md,
// operations guide in docs/OPERATIONS.md). A ServeManager hosts concurrent
// sessions — long-running simulations driven over HTTP/JSON, with .ispn
// timeline events injectable mid-run — and its Handler mounts the whole API
// on any mux.
type (
	// ServeManager owns the session table of a control-plane server.
	ServeManager = serve.Manager
	// ServeConfig sets the scenario library directory and session cap.
	ServeConfig = serve.Config
	// ServeCreateRequest describes one session to create.
	ServeCreateRequest = serve.CreateRequest
)

// NewServeManager builds a session manager for the control-plane API.
func NewServeManager(cfg ServeConfig) *ServeManager { return serve.NewManager(cfg) }
