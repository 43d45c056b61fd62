package service

// The job lifecycle: queued -> running -> done, with cancellation
// riding a one-shot sebmc.CancelFlag that timeout, client disconnect
// and DELETE all share. Jobs are the unit the bounded queue holds and
// the worker pool executes; CheckRequest/JobResult are the JSON wire
// types.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	sebmc "repro"
	"repro/internal/faultpoint"
)

// StatusError is the JobResult status of a request that failed
// internally — a recovered solver panic, a poisoned session, an
// injected fault, a quarantined key — as opposed to UNKNOWN, which
// means a resource budget (timeout, cancellation, conflict cap) ran
// out. ERROR results are never cached and count toward quarantine.
const StatusError = "ERROR"

// JobState is the lifecycle phase of a submitted job.
type JobState string

// Job lifecycle phases.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
)

// CheckRequest is one checking request as submitted over HTTP.
type CheckRequest struct {
	// Model is the model source text, inline.
	Model string `json:"model"`
	// Format is "msl" or "aag"; empty auto-detects ("aag " header).
	Format string `json:"format,omitempty"`
	// Bound is the bound k (the maximum bound when Deepen is set).
	Bound int `json:"bound"`
	// Engine names the decision engine ("" = server default).
	Engine string `json:"engine,omitempty"`
	// Semantics is "exact" (default) or "atmost".
	Semantics string `json:"semantics,omitempty"`
	// Deepen searches bounds 0..Bound for the shortest counterexample.
	Deepen bool `json:"deepen,omitempty"`
	// Prove asks for a terminal verdict: k-induction raced against the
	// interpolation engine, depth/window capped at Bound. A SAFE answer
	// holds at every depth, is cached under a bound-free key, and
	// short-circuits any later request for the same model at any bound
	// — Bound is advisory once a terminal verdict is cached. Mutually
	// exclusive with Deepen; forces engine "interp".
	Prove bool `json:"prove,omitempty"`
	// Schedule selects the deepening bound schedule: "linear" (default)
	// or "geometric" (k → 2k with binary-search refinement; implies
	// at-most-k semantics for the run — the answer is the same shortest
	// depth, in O(log Bound) solver invocations). Ignored without
	// Deepen.
	Schedule string `json:"schedule,omitempty"`
	// TimeoutMS aborts the job (status UNKNOWN) after this many
	// milliseconds of solving.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Witness includes the counterexample trace in the result.
	Witness bool `json:"witness,omitempty"`
	// Certificate includes the invariant certificate of a terminal SAFE
	// verdict in the result, in its replayable text form.
	Certificate bool `json:"certificate,omitempty"`
	// PlaistedGreenbaum selects the polarity-aware CNF transformation.
	PlaistedGreenbaum bool `json:"pg,omitempty"`
	// Wait makes the submission synchronous: the response carries the
	// result, and closing the connection cancels the job.
	Wait bool `json:"wait,omitempty"`
}

func (r CheckRequest) timeout() time.Duration {
	if r.TimeoutMS <= 0 {
		return 0
	}
	return time.Duration(r.TimeoutMS) * time.Millisecond
}

// JobResult is the outcome of one job as served over HTTP.
type JobResult struct {
	Status    string `json:"status"` // SAFE | REACHABLE | UNREACHABLE | UNKNOWN | ERROR
	Bound     int    `json:"bound"`
	FoundAt   int    `json:"found_at"` // deepen: bound of the cex (-1 none)
	DecidedBy string `json:"decided_by,omitempty"`
	// Terminal: the verdict is bound-independent (SAFE at every depth).
	// Terminal results are cached under a bound-free key, so any later
	// bound for this model answers from cache.
	Terminal bool `json:"terminal,omitempty"`
	// Cached: served from the verdict cache, no solver ran.
	Cached bool `json:"cached"`
	// SessionHit: answered on a pre-existing warm session.
	SessionHit bool `json:"session_hit"`
	// WitnessValidated: the trace was replayed against the transition
	// system step by step before being served.
	WitnessValidated bool   `json:"witness_validated"`
	Witness          string `json:"witness,omitempty"`
	// CertificateValidated: the invariant certificate of a terminal
	// verdict was replayed by substitution (three SAT obligations)
	// before being served. Certificate is its text form, present when
	// the request asked for it.
	CertificateValidated bool   `json:"certificate_validated,omitempty"`
	Certificate          string `json:"certificate,omitempty"`
	Iterations           int    `json:"iterations,omitempty"` // deepen: bounds tried this run
	// BoundsSkipped: bounds of the deepened range answered without their
	// own solver invocation — by the geometric schedule's coverage jumps
	// and/or a warm session's proven prefix.
	BoundsSkipped int    `json:"bounds_skipped,omitempty"`
	Conflicts     int64  `json:"conflicts,omitempty"`
	PeakBytes     int    `json:"peak_bytes,omitempty"`
	ElapsedMS     int64  `json:"elapsed_ms"`
	Error         string `json:"error,omitempty"`

	// panicked marks a result born from a recovered panic, so
	// finishResult counts panics_recovered exactly once per recovery
	// (server-side only, never serialized).
	panicked bool
}

// errored reports whether the result is an internal error (the
// quarantine-relevant failure class).
func (r *JobResult) errored() bool { return r.Status == StatusError }

// decided reports a real verdict: SAFE, REACHABLE or UNREACHABLE.
func (r *JobResult) decided() bool {
	return r.Status == sebmc.Reachable.String() || r.Status == sebmc.Unreachable.String() ||
		r.Status == sebmc.Safe.String()
}

// job is one queue entry.
type job struct {
	id     string
	req    CheckRequest
	sys    *sebmc.System
	hash   string
	engine sebmc.Engine
	sem    sebmc.Semantics
	sched  sebmc.Schedule
	cancel *sebmc.CancelFlag
	// timeout is the effective solving budget: the request's
	// timeout_ms clamped to the server's Config.MaxTimeout — a hostile
	// bound with no timeout cannot pin a worker forever.
	timeout time.Duration
	// timedOut records that the cancel flag was set by the job's own
	// TimeoutMS budget, not by a client: /metrics reports the two
	// separately (a timeout spike and an abandonment spike mean very
	// different things to an operator).
	timedOut atomic.Bool
	done     chan struct{} // closed when result is set

	mu     sync.Mutex
	state  JobState
	result *JobResult
}

// key is the job's verdict-cache identity: everything that determines
// the answer, nothing that does not (budgets and witness preferences
// stay out). The schedule is part of the key even though linear and
// geometric deepening agree on status and FoundAt: the cached verdict
// also replays Iterations/BoundsSkipped, which are schedule-shaped.
func (j *job) key() verdictKey {
	return verdictKey{sessionKey: j.sessionKey(), Bound: j.req.Bound, Deepen: j.req.Deepen}
}

// terminalKey is the bound-free cache identity of a terminal verdict
// for a model: Bound -1 (no real request carries a negative bound, so
// the sentinel can never collide with a bounded entry) and the interp
// engine, everything else canonical zero. One entry per model hash —
// a terminal SAFE answers every bound, semantics, schedule and CNF
// mode, so none of them belong in the key.
func terminalKey(hash string) verdictKey {
	return verdictKey{sessionKey: sessionKey{Hash: hash, Engine: sebmc.EngineInterp}, Bound: -1}
}

func (j *job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) setState(s JobState) {
	j.mu.Lock()
	j.state = s
	j.mu.Unlock()
}

func (j *job) finish(res *JobResult) {
	j.mu.Lock()
	j.state = JobDone
	j.result = res
	j.mu.Unlock()
	close(j.done)
}

// Result returns the job's result, nil while unfinished.
func (j *job) Result() *JobResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// status is the JSON status view of a job.
type jobStatus struct {
	ID     string     `json:"id"`
	State  JobState   `json:"state"`
	Engine string     `json:"engine"`
	Bound  int        `json:"bound"`
	Deepen bool       `json:"deepen,omitempty"`
	Hash   string     `json:"model_hash"`
	Result *JobResult `json:"result,omitempty"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:     j.id,
		State:  j.state,
		Engine: j.engine.String(),
		Bound:  j.req.Bound,
		Deepen: j.req.Deepen,
		Hash:   j.hash,
		Result: j.result,
	}
}

// loadModel parses the inline model source.
func loadModel(req CheckRequest) (*sebmc.System, error) {
	if strings.TrimSpace(req.Model) == "" {
		return nil, fmt.Errorf("service: empty model")
	}
	format := req.Format
	if format == "" {
		if strings.HasPrefix(strings.TrimSpace(req.Model), "aag ") {
			format = "aag"
		} else {
			format = "msl"
		}
	}
	switch format {
	case "msl":
		return sebmc.LoadMSL(req.Model)
	case "aag":
		return sebmc.LoadAIGER(strings.NewReader(req.Model), 0)
	}
	return nil, fmt.Errorf("service: unknown model format %q (want msl or aag)", format)
}

// errorResult builds the ERROR JobResult for an internal failure,
// tagging recovered panics so the metric counts them exactly once.
func errorResult(j *job, err error, sessionHit bool) *JobResult {
	_, panicked := sebmc.AsPanic(err)
	return &JobResult{
		Status:     StatusError,
		Bound:      j.req.Bound,
		FoundAt:    -1,
		SessionHit: sessionHit,
		Error:      err.Error(),
		panicked:   panicked,
	}
}

// fromResult converts a library Result, validating the witness by
// replaying it against the encoded system. Results carrying an internal
// error (a recovered panic, a poisoned session) become ERROR.
func fromResult(r sebmc.Result, j *job, sessionHit bool) *JobResult {
	if r.Err != nil {
		return errorResult(j, r.Err, sessionHit)
	}
	out := &JobResult{
		Status:     r.Status.String(),
		Bound:      j.req.Bound,
		FoundAt:    -1,
		DecidedBy:  r.DecidedBy,
		SessionHit: sessionHit,
		Conflicts:  r.Conflicts,
		PeakBytes:  r.PeakBytes,
	}
	if r.Status == sebmc.Reachable {
		out.FoundAt = r.K
		noteWitness(out, r.Witness, r.System)
	}
	// A bounded check routed through the interp engine can come back
	// terminal. No certificate rides a Result (the engine validated its
	// invariant internally before answering Safe); prove requests go
	// through fromVerdict and do carry it.
	if r.Status == sebmc.Safe {
		out.Terminal = true
	}
	return out
}

// fromDeepen converts a library DeepenResult the same way, computing
// BoundsSkipped: of the bounds the run decided (0..FoundAt when
// Reachable, 0..Bound when Unreachable), how many never got their own
// solver invocation — covered by a geometric jump or a warm session's
// proven prefix. Zero for a cold linear run; inconclusive runs decide
// nothing, so they skip nothing.
func fromDeepen(d sebmc.DeepenResult, j *job, sessionHit bool) *JobResult {
	if d.Err != nil {
		return errorResult(j, d.Err, sessionHit)
	}
	out := &JobResult{
		Status:     d.Status.String(),
		Bound:      j.req.Bound,
		FoundAt:    d.FoundAt,
		DecidedBy:  d.DecidedBy,
		SessionHit: sessionHit,
		Iterations: d.Iterations,
	}
	covered := 0
	switch d.Status {
	case sebmc.Reachable:
		covered = d.FoundAt + 1
	case sebmc.Unreachable:
		covered = j.req.Bound + 1
	}
	if skipped := covered - d.Iterations; skipped > 0 {
		out.BoundsSkipped = skipped
	}
	if d.Status == sebmc.Reachable {
		noteWitness(out, d.Witness, d.System)
	}
	return out
}

// fromVerdict converts a library Verdict (the Prove race / interp
// engine), mapping its bound-independent answers onto the request:
// SAFE is terminal and carries the replayed invariant certificate;
// REACHABLE carries the replayed witness; UNREACHABLE that proved less
// than the requested bound is downgraded to UNKNOWN so a bound-keyed
// cache entry never overclaims.
func fromVerdict(v sebmc.Verdict, j *job) *JobResult {
	if v.Err != nil {
		return errorResult(j, v.Err, false)
	}
	out := &JobResult{
		Status:    v.Status.String(),
		Bound:     j.req.Bound,
		FoundAt:   -1,
		DecidedBy: v.DecidedBy,
		Conflicts: v.Conflicts,
		PeakBytes: v.PeakBytes,
	}
	switch v.Status {
	case sebmc.Safe:
		out.Terminal = true
		noteCertificate(out, v.Certificate, v.System)
	case sebmc.Reachable:
		out.FoundAt = v.K
		var w *sebmc.Witness
		if v.Certificate != nil {
			w = v.Certificate.Witness
		}
		noteWitness(out, w, v.System)
	case sebmc.Unreachable:
		if v.K < j.req.Bound {
			out.Status = sebmc.Unknown.String()
		}
	}
	return out
}

// noteCertificate replays a terminal verdict's invariant certificate
// before it is served or cached, the exact analogue of noteWitness. A
// nil certificate is allowed — the k-induction arm proves without an
// artifact — but a certificate that fails replay withholds the verdict
// (ERROR): a terminal claim is the strongest answer the service gives,
// so it is never served on the prover's word alone.
func noteCertificate(out *JobResult, c *sebmc.Certificate, sys *sebmc.System) {
	// Fault-injection site: an injected failure is indistinguishable
	// from a broken replayer, so the verdict is withheld, mirroring
	// service.witness.validate.
	if err := faultpoint.Hit("service.certificate.validate"); err != nil {
		out.Status = StatusError
		out.Error = fmt.Sprintf("certificate validation failed: %v", err)
		return
	}
	if c == nil {
		return
	}
	if sys == nil {
		out.Status = StatusError
		out.Error = "certificate without a system to replay against"
		return
	}
	if err := c.Validate(sys); err != nil {
		out.Status = StatusError
		out.Error = fmt.Sprintf("certificate failed replay: %v", err)
		return
	}
	out.CertificateValidated = true
	out.Certificate = c.String()
}

func noteWitness(out *JobResult, w *sebmc.Witness, sys *sebmc.System) {
	// Fault-injection site: an injected failure here is
	// indistinguishable from a broken replayer, so the verdict is
	// withheld (ERROR) rather than served unvalidated.
	if err := faultpoint.Hit("service.witness.validate"); err != nil {
		out.Status = StatusError
		out.Error = fmt.Sprintf("witness validation failed: %v", err)
		return
	}
	if w == nil || sys == nil {
		out.Error = "reachable but no witness produced"
		return
	}
	if err := w.Validate(sys); err != nil {
		out.Error = fmt.Sprintf("witness failed replay: %v", err)
		return
	}
	out.WitnessValidated = true
	out.Witness = w.String()
}
