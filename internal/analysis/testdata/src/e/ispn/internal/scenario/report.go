// Reportnil fixture: reads through optional report-section pointers must be
// dominated by a nil guard; the guard shapes below are all recognized.
package scenario

// AdmissionTotals and RoutingTotals stand in for the optional sections.
type AdmissionTotals struct{ Requested, Admitted int }

type RoutingTotals struct{ Reroutes int }

// Report mirrors the real report shape: optional features hang off
// pointer fields that stay nil when the feature is off.
type Report struct {
	Flows     []int
	Admission *AdmissionTotals
	Routing   *RoutingTotals
}

func unguarded(r *Report) int {
	return r.Admission.Requested // want "reads through optional report section r.Admission"
}

func unguardedWrite(r *Report) {
	r.Routing.Reroutes = 1 // want "reads through optional report section r.Routing"
}

func installSection(r *Report) {
	r.Admission = &AdmissionTotals{} // installing the section is the builder's job
}

func guarded(r *Report) int {
	if r.Admission != nil {
		return r.Admission.Requested
	}
	return 0
}

func earlyExit(r *Report) int {
	if r.Admission == nil {
		return 0
	}
	return r.Admission.Requested
}

func shortCircuitOr(r *Report) bool {
	if r.Admission == nil || r.Admission.Requested > 0 {
		return true
	}
	return r.Admission.Admitted > 0
}

func shortCircuitAnd(r *Report) bool {
	return r.Routing != nil && r.Routing.Reroutes > 0
}

func initGuard(r *Report) int {
	if a := r.Admission; a != nil {
		return a.Requested
	}
	return 0
}

func alias(r *Report) int {
	if r.Admission != nil {
		a := r.Admission
		return a.Requested + a.Admitted
	}
	return 0
}

func closureLosesGuards(r *Report) func() int {
	if r.Admission == nil {
		return nil
	}
	return func() int {
		return r.Admission.Requested // want "reads through optional report section r.Admission"
	}
}

// A section method may trust its own receiver: the caller guards the
// selection.
func (a *AdmissionTotals) total() int { return a.Requested + a.Admitted }

func callThroughGuard(r *Report) int {
	if r.Admission != nil {
		return r.Admission.total()
	}
	return 0
}

// foldedStatements reads sections unguarded inside the statement kinds the
// walker checks as a whole, under the guards known before the statement:
// each read is still reported.
func foldedStatements(r *Report, ch chan int, use func(int)) {
	{
		use(r.Admission.Requested) // want "reads through optional report section r.Admission"
	}
	{
		if r.Routing.Reroutes > 0 { // want "reads through optional report section r.Routing"
			use(0)
		}
	}
	switch n := r.Admission.Admitted; { // want "reads through optional report section r.Admission"
	case n > 0:
	}
	select {
	case ch <- r.Routing.Reroutes: // want "reads through optional report section r.Routing"
	default:
	}
loop:
	for r.Admission.Requested > 0 { // want "reads through optional report section r.Admission"
		break loop
	}
	go use(r.Admission.Requested) // want "reads through optional report section r.Admission"
	ch <- r.Routing.Reroutes      // want "reads through optional report section r.Routing"
}

// panicExit and reversedCheck are guards the analyzer does not draw a fact
// from: the reads below them are reported.
func panicExit(r *Report) int {
	if r.Admission == nil {
		panic("no admission section")
	}
	return r.Admission.Requested // want "reads through optional report section r.Admission"
}

func reversedCheck(r *Report) int {
	if nil == r.Routing {
		return 0
	}
	return r.Routing.Reroutes // want "reads through optional report section r.Routing"
}

func allowed(r *Report) int {
	//ispnvet:allow reportnil: fixture exercises the escape hatch; caller guarantees the section
	return r.Admission.Requested
}
