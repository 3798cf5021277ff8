package scenario

import (
	"fmt"
	"strconv"
	"strings"

	"ispn/internal/invariant"
	"ispn/internal/sched"
	"ispn/internal/stats"
)

// Report is the result of one scenario run: a per-flow delay summary, TCP
// connection statistics, and per-link utilization. All delay figures are in
// milliseconds of queueing delay (total minus the fixed store-and-forward
// and propagation components, the paper's convention).
type Report struct {
	Scenario    string
	Seed        int64
	Horizon     float64 // simulated seconds
	Percentiles []float64

	Flows []FlowReport
	TCPs  []TCPReport
	Links []LinkReport

	// Admission totals runtime service requests; nil for static scenarios
	// (compile-time flows are unconditional). Churns summarizes each Churn
	// element's arrival process; Trace holds the per-interval curves when
	// Run(trace <dt>) is set; Warnings are runtime timeline diagnostics
	// (e.g. a link event refused because of live reservations). Routing
	// totals reroute activity and is nil unless the scenario configured
	// rerouting (Net routing argument or a Reroute element), so static
	// reports stay bit-identical.
	Admission *AdmissionTotals
	Routing   *RoutingTotals
	// RouteCache summarizes the destination-locality route cache and is nil
	// unless the file declared a RouteCache element — a cache forced through
	// Options never prints, so forced and plain runs stay byte-identical.
	RouteCache *RouteCacheReport
	Churns     []ChurnReport
	Trace      []TraceRow
	Warnings   []string

	// Check summarizes the invariant oracle when the run was compiled with
	// Options.Check; nil otherwise, so unchecked reports stay byte-for-byte
	// what they always were.
	Check *CheckReport
}

// CheckReport is the invariant oracle's verdict on one run.
type CheckReport struct {
	Deliveries int64 // per-packet bound checks performed
	Sweeps     int64 // conservation/capacity sweeps performed
	Violations []invariant.Violation
}

// Failed reports whether any invariant checker fired.
func (c *CheckReport) Failed() bool { return len(c.Violations) > 0 }

// RoutingTotals counts network-wide reroute outcomes: flows moved to a new
// path and reroute attempts refused (no alternate path, or an added hop
// that could not honor the flow's spec).
type RoutingTotals struct {
	Reroutes int64
	Refusals int64
}

// RouteCacheReport summarizes the scenario's route cache: its configuration
// and the DEC-TR-592 counters (lookups served, full clears after topology or
// routing events, evictions under capacity pressure).
type RouteCacheReport struct {
	Scheme        string
	Size          int
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
}

// HitRate is the fraction of lookups served from the cache (0 when none).
func (rc *RouteCacheReport) HitRate() float64 {
	if n := rc.Hits + rc.Misses; n > 0 {
		return float64(rc.Hits) / float64(n)
	}
	return 0
}

// ChurnReport summarizes one Churn element: its arrival/admission counts and
// the delay statistics aggregated over every flow it ever admitted.
type ChurnReport struct {
	Name      string
	Arrivals  int64
	Admitted  int64
	Rejected  int64
	Departed  int64
	Delivered int64
	MeanMS    float64
	PctMS     []float64 // one entry per Report.Percentiles
	MaxMS     float64
}

// TraceRow is one full trace interval. The JSON tags here and on FlowReport,
// LinkSnapshot and AdmissionTotals are the control plane's wire format
// (docs/SERVE.md): serve encodes these types as they are.
type TraceRow struct {
	Interval  int     `json:"interval"` // index: the row covers [Interval·dt, (Interval+1)·dt)
	Start     float64 `json:"start"`
	End       float64 `json:"end"`
	Delivered int64   `json:"delivered"`
	MeanMS    float64 `json:"mean_ms"`
	MaxMS     float64 `json:"max_ms"`
	Admitted  int64   `json:"admitted"`
	Rejected  int64   `json:"rejected"`
	Departed  int64   `json:"departed"`
	Util      float64 `json:"util"` // aggregate link utilization over the interval
}

// FlowReport summarizes one flow.
type FlowReport struct {
	Name    string `json:"name"`
	Service string `json:"service"` // "guaranteed", "predicted/«class»", "datagram"
	Hops    int    `json:"hops"`
	// ArriveS is the simulated time the flow was requested (0 = at start).
	// Rejected marks a timeline request refused by admission (Reason says
	// why); Departed marks a flow removed before the horizon.
	ArriveS  float64 `json:"arrive_s"`
	Rejected bool    `json:"rejected,omitempty"`
	Reason   string  `json:"reason,omitempty"`
	Departed bool    `json:"departed,omitempty"`
	// Delivered counts packets that reached the sink; EdgeDropped counts
	// packets refused entry by token-bucket policing.
	Delivered   int64 `json:"delivered"`
	EdgeDropped int64 `json:"edge_dropped"`
	// Reroutes counts the flow's successful path moves; RerouteRefusals
	// counts attempts admission turned down (the flow kept its old path).
	Reroutes        int64 `json:"reroutes,omitempty"`
	RerouteRefusals int64 `json:"reroute_refusals,omitempty"`
	// BoundMS is the a priori delay bound advertised to the flow
	// (negative for datagram flows, which get no commitment).
	BoundMS float64   `json:"bound_ms"`
	MeanMS  float64   `json:"mean_ms"`
	PctMS   []float64 `json:"pct_ms"` // one entry per Report.Percentiles
	MaxMS   float64   `json:"max_ms"`
}

// TCPReport summarizes one TCP connection.
type TCPReport struct {
	Name        string
	Delivered   int64 // in-order segments
	Retransmits int64
	Timeouts    int64
	GoodputKbps float64
}

// LinkReport summarizes one link that carried traffic.
type LinkReport struct {
	Name string
	// Sched names the link's scheduling pipeline at the end of the run
	// (kind, plus the sharing mode when a unified pipeline deviates from
	// FIFO+), e.g. "unified", "unified/fifo", "wfq".
	Sched       string
	Utilization float64 // lifetime fraction of capacity
	Drops       int64   // buffer drops
}

func (s *Sim) buildReport() *Report {
	r := &Report{
		Scenario:    s.File.Name,
		Seed:        s.Seed,
		Horizon:     s.Horizon,
		Percentiles: s.Percentiles,
	}
	for _, f := range s.Flows {
		r.Flows = append(r.Flows, s.flowReport(f))
	}
	for _, t := range s.TCPs {
		st := t.Conn.Stats()
		active := s.Horizon - t.StartAt
		r.TCPs = append(r.TCPs, TCPReport{
			Name:        t.Name,
			Delivered:   st.Delivered,
			Retransmits: st.Retransmits,
			Timeouts:    st.Timeouts,
			GoodputKbps: t.Conn.ThroughputBits(active) / 1e3,
		})
	}
	for _, nd := range s.Net.Topology().Nodes() {
		for _, pt := range nd.Ports() {
			ctr := pt.Counter()
			if ctr.Total == 0 {
				continue
			}
			r.Links = append(r.Links, LinkReport{
				Name:        pt.Name(),
				Sched:       schedName(s.Net.ProfileAt(pt)),
				Utilization: pt.TotalUtilization(s.Horizon),
				Drops:       ctr.Dropped,
			})
		}
	}
	for _, ch := range s.churns {
		agg := stats.NewRecorder()
		var delivered int64
		for _, f := range ch.flows {
			agg.Absorb(f.Meter())
			delivered += f.Delivered()
		}
		cr := ChurnReport{
			Name:      ch.name,
			Arrivals:  ch.arrivals,
			Admitted:  ch.admitted,
			Rejected:  ch.rejected,
			Departed:  ch.departed,
			Delivered: delivered,
			MeanMS:    agg.Mean() * 1e3,
			MaxMS:     agg.Max() * 1e3,
		}
		for _, p := range s.Percentiles {
			cr.PctMS = append(cr.PctMS, agg.Percentile(p)*1e3)
		}
		r.Churns = append(r.Churns, cr)
	}
	if s.hasTimeline() {
		adm := s.adm
		r.Admission = &adm
	}
	if s.routingOn {
		re, ref := s.Net.RerouteTotals()
		r.Routing = &RoutingTotals{Reroutes: re, Refusals: ref}
	}
	if s.cacheOn {
		if c := s.Net.RouteCache(); c != nil {
			st := c.Stats()
			r.RouteCache = &RouteCacheReport{
				Scheme:        c.Scheme(),
				Size:          c.Size(),
				Hits:          st.Hits,
				Misses:        st.Misses,
				Evictions:     st.Evictions,
				Invalidations: st.Invalidations,
			}
		}
	}
	if tr := s.trace; tr != nil {
		for k := 0; k < tr.nfull; k++ {
			r.Trace = append(r.Trace, tr.row(k))
		}
	}
	r.Warnings = append(r.Warnings, s.warnings...)
	return r
}

// flowReport summarizes one flow as of the current simulation clock — the
// final report and the control plane's live /flows view build the same rows
// through here, so they cannot drift apart.
func (s *Sim) flowReport(f *SimFlow) FlowReport {
	fr := FlowReport{
		Name:     f.Name,
		Service:  serviceName(f),
		ArriveS:  f.At,
		Rejected: f.Rejected,
		Reason:   f.Reason,
		Departed: f.Departed,
		BoundMS:  -1,
	}
	if f.Flow != nil {
		m := f.Flow.Meter()
		fr.Hops = f.Flow.Hops()
		fr.Delivered = f.Flow.Delivered()
		fr.EdgeDropped = f.EdgeDropped()
		fr.Reroutes = f.Flow.Rerouted()
		fr.RerouteRefusals = f.Flow.RerouteRefused()
		fr.BoundMS = f.Flow.Bound() * 1e3
		fr.MeanMS = m.Mean() * 1e3
		fr.MaxMS = m.Max() * 1e3
		for _, p := range s.Percentiles {
			fr.PctMS = append(fr.PctMS, m.Percentile(p)*1e3)
		}
	} else {
		fr.PctMS = make([]float64, len(s.Percentiles))
	}
	return fr
}

// FlowReports returns a live flow summary — one FlowReport per scenario
// flow, with delay statistics as of the current simulation clock.
func (s *Sim) FlowReports() []FlowReport {
	out := make([]FlowReport, 0, len(s.Flows))
	for _, f := range s.Flows {
		out = append(out, s.flowReport(f))
	}
	return out
}

// LinkSnapshot is one port's live state for the control plane: identity,
// current scheduling pipeline, and counters as of the simulation clock.
// Unlike the report's link table it includes links that have not carried
// traffic yet — a live view must show the whole topology.
type LinkSnapshot struct {
	Name        string  `json:"name"`
	Sched       string  `json:"sched"`
	Down        bool    `json:"down,omitempty"`
	Utilization float64 `json:"utilization"` // lifetime fraction of capacity so far
	QueueLen    int     `json:"queue_len"`
	TxPackets   int64   `json:"tx_packets"`
	Drops       int64   `json:"drops"`
}

// LinkSnapshots returns the live state of every link, in the deterministic
// node/port registration order the report uses.
func (s *Sim) LinkSnapshots() []LinkSnapshot {
	now := s.Now()
	out := []LinkSnapshot{} // non-nil: a topology without links is [] on the wire, not null
	for _, nd := range s.Net.Topology().Nodes() {
		for _, pt := range nd.Ports() {
			out = append(out, LinkSnapshot{
				Name:        pt.Name(),
				Sched:       schedName(s.Net.ProfileAt(pt)),
				Down:        pt.Down(),
				Utilization: pt.TotalUtilization(now),
				QueueLen:    pt.QueueLen(),
				TxPackets:   pt.TxPackets(),
				Drops:       pt.Counter().Dropped,
			})
		}
	}
	return out
}

// TraceInterval returns the trace interval in seconds (0 when the scenario
// has no trace — neither a Run(trace) knob nor an Options.Trace override).
func (s *Sim) TraceInterval() float64 {
	if s.trace == nil {
		return 0
	}
	return s.trace.dt
}

// TraceDone returns how many trace intervals are complete (0 without a
// trace): an interval is complete once the clock reaches its end.
func (s *Sim) TraceDone() int {
	tr := s.trace
	if tr == nil {
		return 0
	}
	done := int(s.Now()/tr.dt + 1e-9)
	if done > tr.nfull {
		done = tr.nfull
	}
	return done
}

// TraceRows returns the completed trace intervals with index >= from — the
// same rows, computed the same way, that the final report prints, so a
// streamed trace concatenates to exactly the report's trace section.
func (s *Sim) TraceRows(from int) []TraceRow {
	if from < 0 {
		from = 0
	}
	var rows []TraceRow
	for k, done := from, s.TraceDone(); k < done; k++ {
		rows = append(rows, s.trace.row(k))
	}
	return rows
}

// schedName renders a port profile for the link table: the pipeline kind,
// with the sharing mode appended when a unified pipeline deviates from the
// FIFO+ default.
func schedName(p sched.Profile) string {
	if p.Kind == sched.KindUnified && p.Sharing != sched.SharingFIFOPlus {
		return p.Kind + "/" + p.Sharing.String()
	}
	return p.Kind
}

func serviceName(f *SimFlow) string {
	switch f.Kind {
	case "Guaranteed":
		return "guaranteed"
	case "Predicted":
		if f.Flow == nil {
			return "predicted"
		}
		return fmt.Sprintf("predicted/%d", f.Flow.Priority)
	default:
		return "datagram"
	}
}

// pctLabel renders 0.999 as "p99.9".
func pctLabel(p float64) string {
	return "p" + strconv.FormatFloat(p*100, 'f', -1, 64)
}

// trimSeconds renders a time without trailing zeros (10, 0.5, 112.5), so
// sub-second trace intervals stay readable.
func trimSeconds(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// Format renders the report as the stats table ispnsim prints.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %.0fs simulated, seed %d\n", r.Scenario, r.Horizon, r.Seed)

	if len(r.Flows) > 0 {
		b.WriteString("\nflow            service        hops   delivered  dropped")
		for _, p := range r.Percentiles {
			fmt.Fprintf(&b, "  %9s", pctLabel(p))
		}
		b.WriteString("       mean        max      bound\n")
		departed, rejected := false, false
		for _, f := range r.Flows {
			service := f.Service
			if f.Rejected {
				service = "rejected"
				rejected = true
			} else if f.Departed {
				service += "*"
				departed = true
			}
			fmt.Fprintf(&b, "%-15s %-14s %4d  %10d %8d", f.Name, service, f.Hops, f.Delivered, f.EdgeDropped)
			for _, v := range f.PctMS {
				fmt.Fprintf(&b, "  %9.2f", v)
			}
			bound := "       none"
			if f.BoundMS >= 0 {
				bound = fmt.Sprintf("%8.1fms", f.BoundMS)
			}
			fmt.Fprintf(&b, "  %9.2f  %9.2f %s\n", f.MeanMS, f.MaxMS, bound)
		}
		b.WriteString("(delays in ms of queueing)\n")
		if departed {
			b.WriteString("(* departed before the horizon)\n")
		}
		if rejected {
			b.WriteString("(rejected: refused by admission control at arrival time)\n")
		}
	}

	if len(r.Churns) > 0 {
		b.WriteString("\nchurn           arrivals  admitted  rejected  departed   delivered")
		for _, p := range r.Percentiles {
			fmt.Fprintf(&b, "  %9s", pctLabel(p))
		}
		b.WriteString("       mean        max\n")
		for _, ch := range r.Churns {
			fmt.Fprintf(&b, "%-15s %8d  %8d  %8d  %8d  %10d", ch.Name, ch.Arrivals, ch.Admitted, ch.Rejected, ch.Departed, ch.Delivered)
			for _, v := range ch.PctMS {
				fmt.Fprintf(&b, "  %9.2f", v)
			}
			fmt.Fprintf(&b, "  %9.2f  %9.2f\n", ch.MeanMS, ch.MaxMS)
		}
	}

	if r.Admission != nil {
		a := r.Admission
		fmt.Fprintf(&b, "\nadmission: %d requested, %d admitted, %d rejected, %d departed\n",
			a.Requested, a.Admitted, a.Rejected, a.Departed)
	}

	if r.Routing != nil {
		fmt.Fprintf(&b, "\nrouting: %d reroute(s), %d refusal(s)\n", r.Routing.Reroutes, r.Routing.Refusals)
		for _, f := range r.Flows {
			if f.Reroutes > 0 || f.RerouteRefusals > 0 {
				fmt.Fprintf(&b, "  %s: %d reroute(s), %d refusal(s)\n", f.Name, f.Reroutes, f.RerouteRefusals)
			}
		}
	}

	if rc := r.RouteCache; rc != nil {
		fmt.Fprintf(&b, "\nroute cache (%s, %d entries): %d hit(s), %d miss(es), %.0f%% hit rate, %d eviction(s), %d invalidation(s)\n",
			rc.Scheme, rc.Size, rc.Hits, rc.Misses, rc.HitRate()*100, rc.Evictions, rc.Invalidations)
	}

	if len(r.TCPs) > 0 {
		b.WriteString("\ntcp             delivered  retransmits  timeouts  goodput\n")
		for _, t := range r.TCPs {
			fmt.Fprintf(&b, "%-15s %9d  %11d  %8d  %6.1f kbit/s\n",
				t.Name, t.Delivered, t.Retransmits, t.Timeouts, t.GoodputKbps)
		}
	}

	if len(r.Links) > 0 {
		b.WriteString("\nlink                      sched           util   drops\n")
		for _, l := range r.Links {
			fmt.Fprintf(&b, "%-24s %-14s %4.0f%% %7d\n", l.Name, l.Sched, l.Utilization*100, l.Drops)
		}
	}

	if len(r.Trace) > 0 {
		fmt.Fprintf(&b, "\ntrace (%ss intervals)\n", trimSeconds(r.Trace[0].End-r.Trace[0].Start))
		b.WriteString("interval             delivered   mean(ms)    max(ms)  admit  reject  depart   util\n")
		for _, row := range r.Trace {
			fmt.Fprintf(&b, "[%6ss, %6ss)  %9d  %9.2f  %9.2f  %5d  %6d  %6d  %4.0f%%\n",
				trimSeconds(row.Start), trimSeconds(row.End), row.Delivered, row.MeanMS, row.MaxMS,
				row.Admitted, row.Rejected, row.Departed, row.Util*100)
		}
	}

	if len(r.Warnings) > 0 {
		b.WriteString("\ntimeline warnings:\n")
		for _, w := range r.Warnings {
			fmt.Fprintf(&b, "  %s\n", w)
		}
	}

	if c := r.Check; c != nil {
		fmt.Fprintf(&b, "\ninvariants: %d deliveries checked, %d sweeps, %d violation(s)\n",
			c.Deliveries, c.Sweeps, len(c.Violations))
		for _, v := range c.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}
