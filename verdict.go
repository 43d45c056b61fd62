package sebmc

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bmc"
	"repro/internal/cancel"
	"repro/internal/induction"
	"repro/internal/interp"
	"repro/internal/sat"
)

// Invariant is an inductive-invariant certificate: a combinational
// predicate over the latches of the certified (COI-reduced) system that
// contains the initial states, is closed under the transition relation,
// and excludes the bad states. Invariant.Check replays it by
// substitution alone — three plain SAT calls, no prover state.
type Invariant = interp.Invariant

// ParseInvariant reads an Invariant.String rendering (ASCII AIGER) back
// into a certificate.
func ParseInvariant(s string) (*Invariant, error) { return interp.ParseInvariant(s) }

// CertKind discriminates the payload of a Certificate.
type CertKind uint8

// Certificate kinds.
const (
	CertNone CertKind = iota
	// CertWitness: a counterexample trace (REACHABLE).
	CertWitness
	// CertInvariant: an inductive invariant (terminal SAFE).
	CertInvariant
)

// String names the kind.
func (k CertKind) String() string {
	switch k {
	case CertWitness:
		return "witness"
	case CertInvariant:
		return "invariant"
	}
	return "none"
}

// Certificate is the polymorphic proof object of a Verdict: the
// counterexample witness of a REACHABLE answer or the inductive
// invariant of a terminal SAFE — either way an independently replayable
// artifact with a text serialization (String / ParseCertificate).
type Certificate struct {
	Kind      CertKind
	Witness   *Witness   // set when Kind == CertWitness
	Invariant *Invariant // set when Kind == CertInvariant
}

// certHeader prefixes the serialization with the payload kind.
const (
	certHeaderWitness   = "certificate: witness"
	certHeaderInvariant = "certificate: invariant"
)

// String serializes the certificate: a one-line kind header followed by
// the payload's own replayable text format (the witness trace or the
// invariant's ASCII AIGER).
func (c *Certificate) String() string {
	if c == nil {
		return ""
	}
	switch c.Kind {
	case CertWitness:
		if c.Witness == nil {
			return ""
		}
		return certHeaderWitness + "\n" + c.Witness.String()
	case CertInvariant:
		if c.Invariant == nil {
			return ""
		}
		return certHeaderInvariant + "\n" + c.Invariant.String()
	}
	return ""
}

// ParseCertificate reads a Certificate.String rendering back into a
// Certificate, the counterpart of ParseWitness for the unified verdict
// surface. The kind header is authoritative: a witness text under an
// invariant header (or vice versa) is an error, never a reinterpretation.
func ParseCertificate(s string) (*Certificate, error) {
	head, rest, _ := strings.Cut(s, "\n")
	switch strings.TrimSpace(head) {
	case certHeaderWitness:
		w, err := bmc.ParseWitness(rest)
		if err != nil {
			return nil, err
		}
		return &Certificate{Kind: CertWitness, Witness: w}, nil
	case certHeaderInvariant:
		inv, err := interp.ParseInvariant(rest)
		if err != nil {
			return nil, err
		}
		return &Certificate{Kind: CertInvariant, Invariant: inv}, nil
	}
	return nil, fmt.Errorf("sebmc: not a certificate (missing kind header)")
}

// Validate replays the certificate against a system: witness traces are
// re-executed, invariants re-checked by substitution. A nil certificate
// validates trivially (some terminal verdicts — k-induction proofs —
// carry no artifact).
func (c *Certificate) Validate(sys *System) error {
	if c == nil {
		return nil
	}
	switch c.Kind {
	case CertWitness:
		if c.Witness == nil {
			return fmt.Errorf("sebmc: witness certificate without a trace")
		}
		return c.Witness.Validate(sys)
	case CertInvariant:
		if c.Invariant == nil {
			return fmt.Errorf("sebmc: invariant certificate without a predicate")
		}
		return c.Invariant.Check(sys, sat.Options{})
	}
	return nil
}

// Verdict is the result shape of the unbounded proving surface (Prove,
// ProveInterp): a status that may be terminal, plus the replayable
// certificate that backs it. Bounded checks and deepening runs report
// Result and DeepenResult.
type Verdict struct {
	Status Status
	// K is the bound the status is relative to: the counterexample
	// depth for Reachable, the deepest refuted bound for Unreachable,
	// and for a terminal Safe the deepest bound that was also refuted
	// explicitly (informational — Safe holds everywhere).
	K int
	// Terminal reports a bound-independent verdict: true exactly for
	// Safe. Terminal verdicts are cached under a bound-free key and
	// answer any future bound for free.
	Terminal bool
	// Certificate is the replayable proof object, when the deciding
	// engine produced one: a witness for Reachable, an invariant for
	// Safe. May be nil (k-induction proves without an artifact).
	Certificate *Certificate
	// System is the transition system the certificate validates
	// against: the COI-reduced plain model for invariants, the encoded
	// (possibly self-looped) model for witnesses.
	System    *System
	DecidedBy string
	Conflicts int64
	PeakBytes int
	// Err reports an internal failure; Status is Unknown when set.
	Err error
}

// Prove attempts to settle the model at every bound: it races the
// interpolation engine (EngineInterp) against k-induction with the
// simple-path constraint, first decisive answer wins. maxK caps the
// induction depth and the interpolation window (0 means the defaults).
//
// Outcomes:
//   - Safe (Terminal): no bad state is reachable at any depth. From the
//     interpolation arm this carries an Invariant certificate already
//     re-checked by substitution; the k-induction arm proves without an
//     artifact.
//   - Reachable: a counterexample exists at depth K; the certificate is
//     its witness.
//   - Unreachable: inconclusive, but no counterexample within K steps.
//   - Unknown: nothing established.
func Prove(sys *System, maxK int, opts Options) Verdict {
	type outcome struct {
		v    Verdict
		name string
	}
	parent := opts.Cancel
	interpFlag := cancel.Derived(parent)
	indFlag := cancel.Derived(parent)

	run := func(f func() Verdict, name string, ch chan<- outcome) {
		ch <- outcome{v: f(), name: name}
	}
	ch := make(chan outcome, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		run(func() Verdict { return proveInterp(sys, maxK, opts, interpFlag) }, "interp", ch)
	}()
	go func() {
		defer wg.Done()
		run(func() Verdict { return proveInduction(sys, maxK, opts, indFlag) }, "induction", ch)
	}()

	decisive := func(v Verdict) bool {
		return v.Status == Safe || v.Status == Reachable
	}
	var best Verdict
	haveBest := false
	for i := 0; i < 2; i++ {
		o := <-ch
		o.v.DecidedBy = o.name
		if decisive(o.v) {
			// Stop the loser and drain it so no goroutine leaks.
			interpFlag.Set()
			indFlag.Set()
			go func() { wg.Wait(); close(ch) }()
			for range ch {
			}
			return o.v
		}
		// Keep the most informative indecisive answer: Unreachable
		// beats Unknown, deeper beats shallower.
		if !haveBest || moreInformative(o.v, best) {
			best = o.v
			haveBest = true
		}
	}
	close(ch)
	return best
}

// ProveInterp runs only the interpolation arm of Prove. Unlike the
// race, a Safe from this path always carries an invariant certificate —
// the deterministic choice when the caller needs the artifact (the
// service's engine=interp route, certificate-echo tests).
func ProveInterp(sys *System, maxK int, opts Options) Verdict {
	v := proveInterp(sys, maxK, opts, opts.Cancel)
	v.DecidedBy = "interp"
	return v
}

// moreInformative orders indecisive verdicts: Unreachable over Unknown,
// then by proven depth.
func moreInformative(a, b Verdict) bool {
	if (a.Status == Unreachable) != (b.Status == Unreachable) {
		return a.Status == Unreachable
	}
	return a.K > b.K
}

// proveInterp runs the interpolation arm.
func proveInterp(sys *System, maxK int, opts Options, flag *CancelFlag) Verdict {
	iopts := interp.Options{
		Mode: opts.mode(),
		SAT:  sat.Options{ConflictBudget: opts.ConflictBudget, Deadline: opts.deadline(), Cancel: flag},
	}
	if maxK > 0 {
		iopts.MaxWindow = maxK
	}
	ir := interp.Solve(sys, iopts)
	v := Verdict{
		Status:    ir.Status,
		K:         ir.K,
		Terminal:  ir.Status == Safe,
		System:    ir.System,
		Conflicts: ir.Conflicts,
		PeakBytes: ir.PeakBytes,
	}
	switch {
	case ir.Invariant != nil:
		v.Certificate = &Certificate{Kind: CertInvariant, Invariant: ir.Invariant}
	case ir.Witness != nil:
		v.Certificate = &Certificate{Kind: CertWitness, Witness: ir.Witness}
	}
	return v
}

// proveInduction runs the k-induction arm.
func proveInduction(sys *System, maxK int, opts Options, flag *CancelFlag) Verdict {
	if maxK <= 0 {
		maxK = 64
	}
	pr := induction.Prove(sys, maxK, induction.Options{
		Mode: opts.mode(),
		SAT:  sat.Options{ConflictBudget: opts.ConflictBudget, Deadline: opts.deadline(), Cancel: flag},
	})
	v := Verdict{K: pr.K, System: pr.System}
	switch pr.Status {
	case induction.Proved:
		v.Status = Safe
		v.Terminal = true
	case induction.Falsified:
		v.Status = Reachable
		if pr.Witness != nil {
			v.Certificate = &Certificate{Kind: CertWitness, Witness: pr.Witness}
		}
	default:
		v.Status = Unknown
	}
	return v
}
