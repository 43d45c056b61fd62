// Package bmc implements the three formulations of the bounded
// reachability problem studied in "Space-Efficient Bounded Model
// Checking" (Katz, Hanna, Dershowitz; DATE 2005):
//
//   - Formula (1): the classical SAT encoding that unrolls the
//     transition relation k times (EncodeUnroll / SolveUnroll).
//   - Formula (2): the linear QBF encoding with a single copy of the
//     transition relation under one universal state pair
//     (EncodeLinear / SolveLinear).
//   - Formula (3): the iterative-squaring QBF encoding whose quantifier
//     alternation depth grows with log k (EncodeSquaring /
//     SolveSquaring).
//
// All encoders answer "is a bad state reachable in exactly k steps?".
// The ≤k variant is obtained by adding a self-loop to every state
// (model.AddSelfLoop), exactly as the paper suggests.
package bmc

import (
	"fmt"

	"repro/internal/model"
)

// Status is the outcome of a bounded reachability check.
type Status uint8

// Check outcomes.
const (
	Unknown     Status = iota // resource budget exhausted
	Reachable                 // a bad state is reachable at the bound
	Unreachable               // no bad state is reachable at the bound
	// Safe is the terminal verdict: no bad state is reachable at ANY
	// bound. Only the unbounded engines (interpolation, k-induction)
	// produce it; bound-relative engines stop at Unreachable.
	Safe
)

// String returns "REACHABLE", "UNREACHABLE", "SAFE" or "UNKNOWN".
func (s Status) String() string {
	switch s {
	case Reachable:
		return "REACHABLE"
	case Unreachable:
		return "UNREACHABLE"
	case Safe:
		return "SAFE"
	}
	return "UNKNOWN"
}

// Semantics selects between exactly-k and at-most-k reachability.
type Semantics uint8

// Reachability semantics.
const (
	// Exact asks for paths of exactly k transitions.
	Exact Semantics = iota
	// AtMost asks for paths of at most k transitions, realized by the
	// paper's self-loop transformation.
	AtMost
)

// String returns "exact" or "atmost".
func (s Semantics) String() string {
	if s == AtMost {
		return "atmost"
	}
	return "exact"
}

// MarshalText writes the semantics' name.
func (s Semantics) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses "exact" or "atmost"; anything else fails.
func (s *Semantics) UnmarshalText(b []byte) error {
	switch string(b) {
	case "exact":
		*s = Exact
	case "atmost":
		*s = AtMost
	default:
		return fmt.Errorf("bmc: unknown semantics %q (want exact or atmost)", b)
	}
	return nil
}

// Prepare returns the system to encode under the given semantics: the
// system itself for Exact, the self-looped system for AtMost.
func Prepare(sys *model.System, sem Semantics) *model.System {
	if sem == AtMost {
		return model.AddSelfLoop(sys)
	}
	return sys
}

// FormulaStats describe the size of an encoded instance — the quantities
// compared by the formula-growth experiment (E2).
type FormulaStats struct {
	Vars         int
	Clauses      int
	Literals     int
	Bytes        int
	Universals   int // 0 for pure SAT
	Alternations int // 0 for pure SAT
}

// Result is the outcome of one bounded check.
type Result struct {
	Status  Status
	K       int
	Witness *Witness // populated by witness-producing engines on Reachable
	// System is the transition system that was actually encoded — the
	// self-looped transform under AtMost semantics. Witnesses validate
	// against it.
	System  *model.System
	Formula FormulaStats
	// Effort counters (whichever the engine fills).
	Conflicts int64 // CDCL conflicts
	Nodes     int64 // QBF search nodes
	PeakBytes int   // solver clause-database high water, when tracked
	// DecidedBy names the engine that produced the result. The sebmc
	// facade fills it on every check; under the portfolio engine it is
	// the race winner.
	DecidedBy string
	// Err reports an internal failure (a recovered solver panic, a
	// poisoned session) rather than a resource-budget Unknown. Status is
	// always Unknown when Err is set: an erroring engine decides
	// nothing.
	Err error
}

func (r Result) String() string {
	return fmt.Sprintf("%v at k=%d (vars=%d clauses=%d)", r.Status, r.K, r.Formula.Vars, r.Formula.Clauses)
}
