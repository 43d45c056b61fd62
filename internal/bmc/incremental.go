package bmc

import (
	"time"

	"repro/internal/cancel"
	"repro/internal/cnf"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// IncrementalOptions configure an IncrementalUnroller.
type IncrementalOptions struct {
	Semantics Semantics
	Mode      tseitin.Mode
	// SAT configures the persistent solver. Per-call budgets
	// (ConflictBudget, PropagationBudget) apply to each CheckBound query
	// individually; the Deadline, when set, caps the whole run.
	SAT sat.Options
	// QueryTimeout, when positive, re-arms the solver deadline before
	// each CheckBound query — the same per-check timeout contract the
	// non-incremental engines get from a fresh solver per bound.
	QueryTimeout time.Duration
}

// IncrStats are cumulative counters over the lifetime of an
// IncrementalUnroller — the quantities the incremental-vs-monolithic
// deepening experiment (E8) compares.
type IncrStats struct {
	Bounds       int   // CheckBound queries answered
	ClausesAdded int   // problem clauses pushed into the solver, total
	VarsAdded    int   // solver variables created, total
	Conflicts    int64 // CDCL conflicts, total
	PeakBytes    int   // solver clause-database high water (ClauseDBBytes)
}

// IncrementalUnroller is the persistent-solver BMC engine: one
// sat.Solver lives for the whole deepening run, the unrolling is
// extended one time frame at a time (emitting only frame k's transition
// clauses on top of frames 0..k-1), and the bad-state property at frame
// k is asserted through a per-frame activation literal passed to the
// solver as an assumption. Learned clauses therefore survive across
// bounds, and a property retired after an Unreachable answer is
// switched off by a unit clause on its activation literal — never
// deleted. Classical deepening re-unrolls from scratch and does O(k²)
// total encoding work to reach depth k; this engine does O(k).
type IncrementalUnroller struct {
	sys  *model.System // prepared (self-looped under AtMost)
	mode tseitin.Mode
	s    *sat.Solver
	f    *cnf.Formula // the growing shared formula; frames append to it

	queryTimeout time.Duration
	runDeadline  time.Time // the construction-time SAT.Deadline, if any

	pushed int     // clauses of f already loaded into the solver
	frames []frame // frames[t] is time step t
	acts   []cnf.Lit
	stats  IncrStats
}

// NewIncrementalUnroller builds an empty unroller for sys. Frames are
// created on demand by CheckBound.
func NewIncrementalUnroller(sys *model.System, opts IncrementalOptions) *IncrementalUnroller {
	return &IncrementalUnroller{
		sys:          Prepare(sys, opts.Semantics),
		mode:         opts.Mode,
		s:            sat.New(opts.SAT),
		f:            &cnf.Formula{},
		queryTimeout: opts.QueryTimeout,
		runDeadline:  opts.SAT.Deadline,
	}
}

// System returns the system actually encoded (post-transform under
// AtMost semantics). Witnesses validate against it.
func (u *IncrementalUnroller) System() *model.System { return u.sys }

// SetCancel replaces the persistent solver's cooperative cancellation
// flag. Flags are one-shot; a long-lived unroller serving many requests
// hands each request its own flag so that cancelling one does not
// poison the solver for the next. A nil flag removes the signal.
func (u *IncrementalUnroller) SetCancel(c *cancel.Flag) { u.s.SetCancel(c) }

// SetDeadline replaces the whole-run deadline: the persistent solver
// aborts with Unknown once it passes, and a configured QueryTimeout is
// clipped to it. A long-lived unroller serving many requests re-arms it
// per request; a zero time removes the deadline.
func (u *IncrementalUnroller) SetDeadline(t time.Time) {
	u.runDeadline = t
	u.s.SetDeadline(t)
}

// Stats returns the cumulative counters of the run so far.
func (u *IncrementalUnroller) Stats() IncrStats { return u.stats }

// NumFrames returns the number of time frames currently encoded.
func (u *IncrementalUnroller) NumFrames() int { return len(u.frames) }

// flush loads everything newly emitted into f — variables first, then
// clauses — into the persistent solver.
func (u *IncrementalUnroller) flush() {
	for u.s.NumVars() < u.f.NumVars() {
		u.s.NewVar()
		u.stats.VarsAdded++
	}
	for ; u.pushed < len(u.f.Clauses); u.pushed++ {
		u.stats.ClausesAdded++
		u.s.AddClause(u.f.Clauses[u.pushed]...)
	}
	if b := u.s.ClauseDBBytes(); b > u.stats.PeakBytes {
		u.stats.PeakBytes = b
	}
}

// extendTo ensures frames 0..k exist, emitting I(Z0) for frame 0 and one
// transition-relation copy per new frame — the only encoding work this
// engine ever repeats is the single new frame per bound step.
func (u *IncrementalUnroller) extendTo(k int) {
	for len(u.frames) <= k {
		t := len(u.frames)
		fr := newFrame(u.sys, u.f, u.mode)
		if t == 0 {
			emitInit(u.sys, u.f, fr)
		} else {
			emitTransition(u.sys, u.f, u.frames[t-1], fr)
		}
		u.frames = append(u.frames, fr)
	}
}

// activation returns the assumption literal that switches on the bad
// property at frame k, encoding the bad cone (guarded) on first use.
func (u *IncrementalUnroller) activation(k int) cnf.Lit {
	for len(u.acts) <= k {
		u.acts = append(u.acts, cnf.NoLit)
	}
	if u.acts[k] == cnf.NoLit {
		bad := emitBad(u.sys, u.frames[k])
		act := cnf.PosLit(u.f.NewVar())
		u.f.Add(act.Neg(), bad)
		u.acts[k] = act
	}
	return u.acts[k]
}

// CheckBound answers "is a bad state reachable in exactly k steps?"
// (under the configured semantics), reusing every clause — problem and
// learnt — from all previous queries. Bounds may be checked in any
// order. After an Unreachable answer the frame's property is retired
// with a unit clause, so later queries propagate it away for free.
func (u *IncrementalUnroller) CheckBound(k int) Result {
	u.extendTo(k)
	act := u.activation(k)
	u.flush()
	u.stats.Bounds++

	if u.queryTimeout > 0 {
		// Per-query deadline, clipped to the whole-run deadline if one
		// was configured.
		d := time.Now().Add(u.queryTimeout)
		if !u.runDeadline.IsZero() && u.runDeadline.Before(d) {
			d = u.runDeadline
		}
		u.s.SetDeadline(d)
	}

	startConflicts := u.s.Stats.Conflicts
	res := Result{K: k, Formula: u.formulaStats(), System: u.sys}
	switch u.s.Solve(act) {
	case sat.Sat:
		res.Status = Reachable
		res.Witness = u.witness(k)
	case sat.Unsat:
		res.Status = Unreachable
		// Retire the property: the guard clause is permanently
		// satisfied, never deleted, and the unit strengthens later
		// queries.
		u.s.AddClause(act.Neg())
	default:
		res.Status = Unknown
	}
	res.Conflicts = u.s.Stats.Conflicts - startConflicts
	u.stats.Conflicts = u.s.Stats.Conflicts
	if b := u.s.ClauseDBBytes(); b > u.stats.PeakBytes {
		u.stats.PeakBytes = b
	}
	res.PeakBytes = u.stats.PeakBytes
	return res
}

// formulaStats sizes the cumulative formula pushed so far.
func (u *IncrementalUnroller) formulaStats() FormulaStats {
	return FormulaStats{
		Vars:     u.f.NumVars(),
		Clauses:  u.f.NumClauses(),
		Literals: u.f.NumLiterals(),
		Bytes:    u.f.SizeBytes(),
	}
}

// witness reads the trace of frames 0..k out of the satisfying
// assignment.
func (u *IncrementalUnroller) witness(k int) *Witness {
	stateVars := make([][]cnf.Var, k+1)
	inputVars := make([][]cnf.Var, k+1)
	for t := 0; t <= k; t++ {
		stateVars[t] = u.frames[t].state
		inputVars[t] = u.frames[t].inputs
	}
	return readWitness(stateVars, inputVars, k, u.s)
}

// SolveIncremental runs one bounded check through a fresh incremental
// unroller — the one-shot entry point used by Check and the bench
// runner. A single bound gains nothing over SolveUnroll; the engine
// pays off when one unroller serves a whole deepening run.
func SolveIncremental(sys *model.System, k int, opts IncrementalOptions) Result {
	return NewIncrementalUnroller(sys, opts).CheckBound(k)
}

// Deepen runs the deepening loop on this unroller: bounds 0..maxBound
// in order, stopping at the first counterexample. Each step adds a
// single transition-relation copy and keeps all learned clauses; Stats
// afterwards holds the cumulative cost of the whole run.
func (u *IncrementalUnroller) Deepen(maxBound int) DeepenResult {
	return DeepenLinearFrom(-1, maxBound, u.CheckBound)
}

// DeepenGeometric runs the geometric deepening schedule on this
// unroller: bounds grow by ratio (≤ 1 = DefaultGeometricRatio) up to
// maxBound, with binary-search refinement of the last growth interval,
// all through the one persistent solver — learned clauses and retired
// properties carry across the jumps (CheckBound accepts bounds in any
// order). The unroller must have been built with AtMost semantics;
// skipping bounds is unsound under Exact.
func (u *IncrementalUnroller) DeepenGeometric(maxBound int, ratio float64) DeepenResult {
	return DeepenGeometricFrom(-1, maxBound, ratio, u.CheckBound)
}

// DeepenIncremental is the persistent-solver counterpart of
// DeepenLinear: one IncrementalUnroller serves every bound 0..maxBound.
func DeepenIncremental(sys *model.System, maxBound int, opts IncrementalOptions) DeepenResult {
	return NewIncrementalUnroller(sys, opts).Deepen(maxBound)
}

// DeepenGeometricIncremental is the persistent-solver entry point for
// the geometric schedule: one IncrementalUnroller, prepared with AtMost
// semantics regardless of opts (the schedule requires it), serves the
// doubling run and the refinement probes.
func DeepenGeometricIncremental(sys *model.System, maxBound int, ratio float64, opts IncrementalOptions) DeepenResult {
	opts.Semantics = AtMost
	return NewIncrementalUnroller(sys, opts).DeepenGeometric(maxBound, ratio)
}
