package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	sebmc "repro"
	"repro/internal/bench"
	"repro/internal/bmc"
	"repro/internal/cancel"
	"repro/internal/induction"
	"repro/internal/interp"
	"repro/internal/jsat"
	"repro/internal/qbf"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// bounded-suite: the paper's E1 question, offline and exact-k. A seeded
// draw of (family, bound) instances from the 13-family grid of
// internal/bench, each handed over as AAG text and run as LoadAIGER →
// Check with sat and jsat; a small-bound slice also runs qbf-linear, and
// each family gets one Prove. Every budget counts work (conflicts,
// queries, nodes), never wall-clock, so the same seed decides the same
// instances on any machine.
const (
	suiteConflicts = 150  // CDCL conflicts per solver call (sat, jsat per query, prove)
	suiteQueries   = 600  // jSAT incremental SAT calls per check
	suiteNodes     = 1000 // QDPLL nodes per qbf-linear check
	suiteProveMaxK = 20   // Prove's induction depth and interpolation window cap
	// suitePerEngine is how many of the 18 grid bounds each family runs
	// under sat and under jsat: most of them, so that any two seeds
	// share most of their instances and neither the pass cost nor the
	// median call swings with the draw. The calls' latencies are dense
	// around the median: drawing 14 of 18 let the draw alone move the
	// seeds' p50_ms by 14% between quartiles, 16 of 18 by 6%.
	suitePerEngine = 16
	// suiteQBFMaxLatches selects the qbf-linear slice: families small
	// enough for general QBF at bounds 1–2.
	suiteQBFMaxLatches = 20
)

// suiteItem is one verdict call of the bounded-suite pass.
type suiteItem struct {
	Family string `json:"family"`
	K      int    `json:"k"`
	Engine string `json:"engine"` // sat, jsat, qbf-linear or prove
}

// suiteDraw is the seed's pass: for every family and each of sat and
// jsat, suitePerEngine bounds of the grid drawn without replacement; one
// qbf-linear check at bound 1 or 2 for families within
// suiteQBFMaxLatches; one Prove per family. The order is shuffled by the
// same seed.
func suiteDraw(seed int64, latches map[string]int) []suiteItem {
	rng := rand.New(rand.NewSource(seed))
	var out []suiteItem
	for _, fam := range bench.Families() {
		for _, eng := range []string{"sat", "jsat"} {
			picked := rng.Perm(len(bench.Bounds))[:suitePerEngine]
			sort.Ints(picked)
			for _, p := range picked {
				out = append(out, suiteItem{fam.Name, bench.Bounds[p], eng})
			}
		}
		if latches[fam.Name] <= suiteQBFMaxLatches {
			out = append(out, suiteItem{fam.Name, 1 + rng.Intn(2), "qbf-linear"})
		}
		out = append(out, suiteItem{fam.Name, suiteProveMaxK, "prove"})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// suiteSetup builds every family and serializes it to AAG text: the
// instances are handed to the system as text, the way a user would.
func suiteSetup() (map[string]string, map[string]int, error) {
	texts := map[string]string{}
	latches := map[string]int{}
	for _, fam := range bench.Families() {
		sys := fam.Build()
		var b strings.Builder
		if err := sebmc.WriteAIGER(sys, &b); err != nil {
			return nil, nil, fmt.Errorf("serialize %s: %w", fam.Name, err)
		}
		texts[fam.Name] = b.String()
		latches[fam.Name] = sys.NumStateVars()
	}
	return texts, latches, nil
}

type suiteInputs struct {
	texts   map[string]string
	latches map[string]int
}

func runSuite(cfg config) (*report, error) {
	rep := newReport()
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	in, setupSecs, err := timeSetup(setupRounds, func() (suiteInputs, error) {
		t, l, err := suiteSetup()
		return suiteInputs{t, l}, err
	})
	if err != nil {
		return nil, err
	}
	items := suiteDraw(cfg.seed, in.latches)
	w := offlineWorkload{
		calls: len(items),
		call: func(i int, tr *tracer, root int) callResult {
			it := items[i]
			if tr == nil {
				return suiteFacade(it, in.texts[it.Family], ref)
			}
			return suiteTraced(it, in.texts[it.Family], ref, tr, i, root)
		},
		layers: suiteLayers,
		setup: func() error {
			_, _, err := suiteSetup()
			return err
		},
	}
	if err := runOffline(cfg, w, setupSecs, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func suiteOptions() sebmc.Options {
	return sebmc.Options{ConflictBudget: suiteConflicts, QueryBudget: suiteQueries, NodeBudget: suiteNodes}
}

// suiteOutcome is what the gate and the self-tests compare between the
// facade call and the traced decomposition.
type suiteOutcome struct {
	status    sebmc.Status
	k         int
	conflicts int64
	nodes     int64
}

// suiteFacade runs one item through the public facade, as a user would.
func suiteFacade(it suiteItem, text string, ref *reference) callResult {
	out, err := suiteFacadeOutcome(it, text)
	return gateSuite(it, out, err, ref)
}

func suiteFacadeOutcome(it suiteItem, text string) (suiteOutcome, error) {
	sys, err := sebmc.LoadAIGER(strings.NewReader(text), 0)
	if err != nil {
		return suiteOutcome{}, err
	}
	if it.Engine == "prove" {
		v := sebmc.Prove(sys, it.K, suiteOptions())
		if err := validateVerdict(v); err != nil {
			return suiteOutcome{}, err
		}
		return suiteOutcome{status: v.Status, k: v.K, conflicts: v.Conflicts}, nil
	}
	eng, err := sebmc.ParseEngine(it.Engine)
	if err != nil {
		return suiteOutcome{}, err
	}
	r := sebmc.Check(sys, it.K, eng, suiteOptions())
	if r.Err != nil {
		return suiteOutcome{}, r.Err
	}
	if r.Status == sebmc.Reachable && r.Witness != nil {
		if err := r.Witness.Validate(r.System); err != nil {
			return suiteOutcome{}, fmt.Errorf("witness does not replay: %w", err)
		}
	}
	return suiteOutcome{status: r.Status, k: r.K, conflicts: r.Conflicts, nodes: r.Nodes}, nil
}

// validateVerdict replays a Prove verdict's certificate: the witness of
// a REACHABLE, the invariant of a SAFE (k-induction proves without one).
func validateVerdict(v sebmc.Verdict) error {
	if v.Err != nil {
		return v.Err
	}
	if v.Certificate == nil {
		if v.Status == sebmc.Reachable {
			return fmt.Errorf("REACHABLE without a witness")
		}
		return nil
	}
	if err := v.Certificate.Validate(v.System); err != nil {
		return fmt.Errorf("%v certificate does not validate: %w", v.Certificate.Kind, err)
	}
	return nil
}

func gateSuite(it suiteItem, out suiteOutcome, err error, ref *reference) callResult {
	name := fmt.Sprintf("%s %s@k%d", it.Engine, it.Family, it.K)
	if err != nil {
		return callResult{wrong: fmt.Errorf("%s: %w", name, err)}
	}
	res := callResult{}
	if it.Engine == "prove" {
		res.decided = out.status == sebmc.Safe || out.status == sebmc.Reachable
		err = ref.checkProve(it.Family, out.status, out.k)
	} else {
		res.decided = out.status == sebmc.Reachable || out.status == sebmc.Unreachable
		err = ref.checkExact(it.Family, it.K, out.status)
	}
	if err != nil {
		res.wrong = fmt.Errorf("%s: %w", name, err)
	}
	return res
}

// suiteTraced runs one item through its layers one call at a time, the
// same calls in the same order the facade makes, with a span around
// each: aig parse, then encode and solve (or the two Prove arms), then
// witness or certificate replay.
func suiteTraced(it suiteItem, text string, ref *reference, tr *tracer, req, root int) callResult {
	counts := map[string]float64{}
	out, err := suiteDecomposed(it, text, tr, req, root, counts)
	res := gateSuite(it, out, err, ref)
	res.counts = counts
	return res
}

// suiteDecomposed is the traced decomposition of the facade call. Its
// verdicts and effort counts equal the facade's (suite_test.go).
func suiteDecomposed(it suiteItem, text string, tr *tracer, req, root int, counts map[string]float64) (suiteOutcome, error) {
	sp := tr.begin("aig.parse", req, root)
	sys, err := sebmc.LoadAIGER(strings.NewReader(text), 0)
	tr.end(sp)
	if err != nil {
		return suiteOutcome{}, err
	}
	opts := suiteOptions()
	switch it.Engine {
	case "sat":
		// sebmc.Check(EngineSAT) = bmc.SolveUnroll: encode formula (1),
		// load it into a fresh CDCL solver, solve.
		sp = tr.begin("encode", req, root)
		prepared := bmc.Prepare(sys, bmc.Exact)
		enc := bmc.EncodeUnroll(prepared, it.K, tseitin.Full)
		tr.end(sp)
		st := enc.Stats()
		counts["encode.vars"] += float64(st.Vars)
		counts["encode.clauses"] += float64(st.Clauses)

		sp = tr.begin("sat", req, root)
		s := sat.New(sat.Options{ConflictBudget: opts.ConflictBudget})
		for s.NumVars() < enc.F.NumVars() {
			s.NewVar()
		}
		for _, c := range enc.F.Clauses {
			if !s.AddClause(c...) {
				break
			}
		}
		status := s.Solve()
		tr.end(sp)
		counts["sat.conflicts"] += float64(s.Stats.Conflicts)
		counts["sat.propagations"] += float64(s.Stats.Propagations)
		counts["sat.clause_db_peak_bytes"] = float64(s.ClauseDBBytes())
		out := suiteOutcome{status: bmc.Unknown, k: it.K, conflicts: s.Stats.Conflicts}
		switch status {
		case sat.Sat:
			out.status = bmc.Reachable
			w := bmc.ReadWitness(enc.StateVars, enc.InputVars, enc.K, s)
			sp = tr.begin("witness.validate", req, root)
			err := w.Validate(prepared)
			tr.end(sp)
			if err != nil {
				return out, fmt.Errorf("witness does not replay: %w", err)
			}
		case sat.Unsat:
			out.status = bmc.Unreachable
		}
		return out, nil

	case "jsat":
		// sebmc.Check(EngineJSAT): build the jSAT solver (one transition
		// relation copy, encoded into its step and init solvers), then
		// search.
		sp = tr.begin("encode", req, root)
		js := jsat.New(sys, jsat.Options{
			Semantics:   bmc.Exact,
			Mode:        tseitin.Full,
			QueryBudget: opts.QueryBudget,
			SAT:         sat.Options{ConflictBudget: opts.ConflictBudget},
		})
		tr.end(sp)
		sp = tr.begin("jsat", req, root)
		r := js.Check(it.K)
		tr.end(sp)
		counts["encode.vars"] += float64(r.Formula.Vars)
		counts["encode.clauses"] += float64(r.Formula.Clauses)
		counts["jsat.queries"] += float64(js.Stats.Queries)
		counts["jsat.cache_hits"] += float64(js.Stats.CacheHits)
		counts["jsat.peak_bytes"] = float64(js.Stats.PeakBytes)
		if r.Status == bmc.Reachable && r.Witness != nil {
			sp = tr.begin("witness.validate", req, root)
			err := r.Witness.Validate(r.System)
			tr.end(sp)
			if err != nil {
				return suiteOutcome{}, fmt.Errorf("witness does not replay: %w", err)
			}
		}
		return suiteOutcome{status: r.Status, k: r.K, conflicts: r.Conflicts}, nil

	case "qbf-linear":
		// sebmc.Check(EngineQBFLinear) = bmc.SolveLinear: formula (2),
		// then the QDPLL solver.
		sp = tr.begin("encode", req, root)
		prepared := bmc.Prepare(sys, bmc.Exact)
		enc := bmc.EncodeLinear(prepared, it.K, tseitin.Full)
		tr.end(sp)
		st := enc.Stats()
		counts["encode.vars"] += float64(st.Vars)
		counts["encode.clauses"] += float64(st.Clauses)
		sp = tr.begin("qbf", req, root)
		q := qbf.New(enc.P, qbf.Options{NodeBudget: opts.NodeBudget})
		qr := q.Solve()
		tr.end(sp)
		counts["qbf.nodes"] += float64(q.Stats.Nodes)
		out := suiteOutcome{status: bmc.Unknown, k: it.K, nodes: q.Stats.Nodes}
		switch qr {
		case qbf.True:
			out.status = bmc.Reachable
		case qbf.False:
			out.status = bmc.Unreachable
		}
		return out, nil

	case "prove":
		return proveDecomposed(sys, it.K, opts.ConflictBudget, tr, req, root, counts)
	}
	return suiteOutcome{}, fmt.Errorf("unknown engine %q", it.Engine)
}

// proveDecomposed is sebmc.Prove taken apart: the interpolation and
// k-induction arms race on two goroutines, each under its own
// cancellation flag, and the first decisive answer stops the other.
func proveDecomposed(sys *sebmc.System, maxK int, conflicts int64, tr *tracer, req, root int, counts map[string]float64) (suiteOutcome, error) {
	type armResult struct {
		out    suiteOutcome
		err    error
		counts map[string]float64
	}
	interpFlag, indFlag := &cancel.Flag{}, &cancel.Flag{}
	ch := make(chan armResult, 2)
	go func() {
		sp := tr.begin("interp", req, root)
		ir := interp.Solve(sys, interp.Options{
			Mode:      tseitin.Full,
			SAT:       sat.Options{ConflictBudget: conflicts, Cancel: interpFlag},
			MaxWindow: maxK,
		})
		tr.end(sp)
		res := armResult{
			out:    suiteOutcome{status: ir.Status, k: ir.K, conflicts: ir.Conflicts},
			counts: map[string]float64{"interp.conflicts": float64(ir.Conflicts), "interp.iterations": float64(ir.Iterations)},
		}
		switch {
		case ir.Invariant != nil:
			sp = tr.begin("cert.validate", req, root)
			res.err = (&sebmc.Certificate{Kind: sebmc.CertInvariant, Invariant: ir.Invariant}).Validate(ir.System)
			tr.end(sp)
		case ir.Witness != nil:
			sp = tr.begin("witness.validate", req, root)
			res.err = ir.Witness.Validate(ir.System)
			tr.end(sp)
		case ir.Status == bmc.Reachable:
			res.err = fmt.Errorf("interp REACHABLE without a witness")
		}
		ch <- res
	}()
	go func() {
		sp := tr.begin("induction", req, root)
		pr := induction.Prove(sys, maxK, induction.Options{
			Mode: tseitin.Full,
			SAT:  sat.Options{ConflictBudget: conflicts, Cancel: indFlag},
		})
		tr.end(sp)
		res := armResult{out: suiteOutcome{status: bmc.Unknown, k: pr.K}}
		switch pr.Status {
		case induction.Proved:
			res.out.status = bmc.Safe
		case induction.Falsified:
			res.out.status = bmc.Reachable
			if pr.Witness == nil {
				res.err = fmt.Errorf("induction REACHABLE without a witness")
				break
			}
			sp = tr.begin("witness.validate", req, root)
			res.err = pr.Witness.Validate(pr.System)
			tr.end(sp)
		}
		ch <- res
	}()
	var best armResult
	for i := 0; i < 2; i++ {
		r := <-ch
		for k, v := range r.counts {
			counts[k] += v
		}
		if r.err != nil || r.out.status == bmc.Safe || r.out.status == bmc.Reachable {
			interpFlag.Set()
			indFlag.Set()
			if i == 0 {
				// Wait for the loser, so no goroutine outlives the call.
				loser := <-ch
				for k, v := range loser.counts {
					counts[k] += v
				}
			}
			return r.out, r.err
		}
		if i == 0 || moreInformative(r.out, best.out) {
			best = r
		}
	}
	return best.out, nil
}

// moreInformative mirrors the facade's order on indecisive verdicts:
// Unreachable over Unknown, then deeper over shallower.
func moreInformative(a, b suiteOutcome) bool {
	if (a.status == bmc.Unreachable) != (b.status == bmc.Unreachable) {
		return a.status == bmc.Unreachable
	}
	return a.k > b.k
}

func suiteLayers(rep *report, self, counts map[string]float64, tr *tracer, passes int) {
	for _, l := range []struct{ metric, layer string }{
		{"aig.parse_ms", "aig.parse"},
		{"encode.ms", "encode"},
		{"sat.ms", "sat"},
		{"jsat.ms", "jsat"},
		{"qbf.ms", "qbf"},
		{"interp.ms", "interp"},
		{"induction.ms", "induction"},
		{"witness.validate_ms", "witness.validate"},
		{"cert.validate_ms", "cert.validate"},
	} {
		setLayer(rep, l.metric, self[l.layer])
	}
	for _, c := range []string{
		"encode.vars", "encode.clauses", "sat.conflicts", "sat.propagations", "sat.clause_db_peak_bytes",
		"jsat.queries", "jsat.peak_bytes", "qbf.nodes", "interp.conflicts", "interp.iterations",
	} {
		setLayer(rep, c, counts[c])
	}
	setLayer(rep, "sat.props_per_s", frac(counts["sat.propagations"], self["sat"]/1000))
	setLayer(rep, "jsat.queries_per_s", frac(counts["jsat.queries"], self["jsat"]/1000))
	setLayer(rep, "jsat.cache_hit_frac", frac(counts["jsat.cache_hits"], counts["jsat.cache_hits"]+counts["jsat.queries"]))
	setLayer(rep, "qbf.nodes_per_s", frac(counts["qbf.nodes"], self["qbf"]/1000))
}
