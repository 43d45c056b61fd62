// Command bmc runs bounded reachability checks on one or more model
// files.
//
// Usage:
//
//	bmc -model design.msl -k 12
//	    [-engine sat|sat-incr|jsat|qbf-linear|qbf-squaring|portfolio|interp]
//	    [-sem exact|atmost] [-schedule linear|geometric]
//	    [-timeout 30s] [-witness] [-cert] [-pg] [-jobs N]
//	bmc -k 12 -engine portfolio -jobs 4 a.msl b.msl c.aag
//	bmc -model design.msl -k 32 -prove -cert
//
// Models are loaded from .msl (Model Specification Language) or .aag
// (ASCII AIGER, output 0 = bad) files; positional arguments after the
// flags name additional models. With more than one model the checks run
// as a batch on a work-stealing pool of -jobs workers (0 = one per
// CPU), results printed in input order. -engine portfolio races the
// complementary engines per query — first decisive answer wins, losers
// are cancelled — and reports which engine decided each instance.
//
// -prove attempts a terminal verdict: it races k-induction against the
// interpolation engine and, on SAFE, prints (with -cert) an inductive
// invariant certificate that any party can re-check by substitution.
// -prove -engine interp pins the interpolation arm, whose SAFE verdicts
// always carry the certificate; -engine interp without -prove routes a
// bounded check through the same unbounded engine, whose answers are
// bound-independent.
//
// Exit codes are uniform across the single, batch, deepen, and prove
// paths: 0 when the property holds (UNREACHABLE at the asked bound, or
// terminal SAFE), 1 when a counterexample was found (REACHABLE), 2 on
// error or an inconclusive run (bad input, UNKNOWN from a timeout or
// budget). A batch exits with its worst item: any error wins over any
// counterexample, which wins over all-safe.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	sebmc "repro"
)

func main() {
	var (
		modelPath = flag.String("model", "", "model file (.msl or .aag); more may follow as positional arguments")
		k         = flag.Int("k", 0, "bound (number of transitions)")
		engineStr = flag.String("engine", "sat", "engine: sat, sat-incr, jsat, qbf-linear, qbf-squaring, portfolio, interp")
		semStr    = flag.String("sem", "exact", "semantics: exact or atmost")
		timeout   = flag.Duration("timeout", 0, "per-check timeout (0 = none)")
		witness   = flag.Bool("witness", false, "print the counterexample trace when found")
		pg        = flag.Bool("pg", false, "use the Plaisted-Greenbaum CNF transformation")
		deepen    = flag.Bool("deepen", false, "iterate bounds 0..k and report the first counterexample")
		schedStr  = flag.String("schedule", "linear", "deepening bound schedule: linear, or geometric (k→2k + bisection; implies -sem atmost)")
		prove     = flag.Bool("prove", false, "attempt a terminal safety proof (k-induction raced against interpolation, depth/window capped at k)")
		cert      = flag.Bool("cert", false, "print the verdict's certificate (invariant or witness) in its replayable text form")
		stats     = flag.Bool("stats", false, "print solver effort statistics (conflicts, clause-DB bytes)")
		jobs      = flag.Int("jobs", 0, "batch workers for multiple models (0 = one per CPU)")
	)
	flag.Parse()

	paths := flag.Args()
	if *modelPath != "" {
		paths = append([]string{*modelPath}, paths...)
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "bmc: -model or positional model files required")
		flag.Usage()
		os.Exit(2)
	}
	engine, err := sebmc.ParseEngine(*engineStr)
	if err != nil {
		fatal(err)
	}
	opts := sebmc.Options{Timeout: *timeout, PlaistedGreenbaum: *pg}
	if err := opts.Semantics.UnmarshalText([]byte(*semStr)); err != nil {
		fatal(err)
	}
	if opts.Schedule, err = sebmc.ParseSchedule(*schedStr); err != nil {
		fatal(err)
	}

	if len(paths) > 1 {
		if *prove {
			fatal(fmt.Errorf("bmc: -prove supports a single model"))
		}
		os.Exit(runBatch(paths, *k, engine, opts, *jobs, *deepen, *witness, *stats))
	}

	sys, err := loadModel(paths[0])
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	if *prove {
		// -prove alone races both arms; -prove -engine interp pins the
		// interpolation arm, whose SAFE always carries a certificate.
		var v sebmc.Verdict
		if engine == sebmc.EngineInterp {
			v = sebmc.ProveInterp(sys, *k, opts)
		} else {
			v = sebmc.Prove(sys, *k, opts)
		}
		fmt.Printf("model %s: %v (k=%d", sys.Name, v.Status, v.K)
		if v.Terminal {
			fmt.Print(", terminal")
		}
		if v.DecidedBy != "" {
			fmt.Printf(", by %s", v.DecidedBy)
		}
		fmt.Printf(") in %v\n", time.Since(start).Round(time.Millisecond))
		if v.Certificate != nil && v.System != nil {
			if err := v.Certificate.Validate(v.System); err != nil {
				fatal(fmt.Errorf("bmc: internal error: invalid certificate: %v", err))
			}
			fmt.Printf("certificate (%s) validated\n", v.Certificate.Kind)
			if *cert || (*witness && v.Certificate.Kind == sebmc.CertWitness) {
				fmt.Print(v.Certificate)
			}
		}
		os.Exit(exitCode(v.Status))
	}
	if *deepen {
		d := sebmc.Deepen(sys, *k, engine, opts)
		printDeepen(sys.Name, d, time.Since(start), *witness)
		os.Exit(exitCode(d.Status))
	}

	r := sebmc.Check(sys, *k, engine, opts)
	printCheck(sys.Name, *k, engine, *semStr, r, time.Since(start), *witness, *stats)
	os.Exit(exitCode(r.Status))
}

// exitCode maps a verdict to the uniform CLI contract: 0 safe, 1
// counterexample, 2 error/inconclusive.
func exitCode(st sebmc.Status) int {
	switch st {
	case sebmc.Unreachable, sebmc.Safe:
		return 0
	case sebmc.Reachable:
		return 1
	}
	return 2
}

// worseCode combines per-item exit codes for a batch: error (2)
// dominates counterexample (1) dominates safe (0).
func worseCode(a, b int) int {
	if a == 2 || b == 2 {
		return 2
	}
	if a == 1 || b == 1 {
		return 1
	}
	return 0
}

// runBatch checks (or deepens) every model on a bounded worker pool and
// prints the results in input order. The exit code follows the same
// uniform contract as the single-model path — 0 all safe, 1 some
// counterexample, 2 some error/UNKNOWN — combining items worst-first,
// so `bmc -deepen a.msl b.msl` scripts exactly like a loop of single
// runs would.
func runBatch(paths []string, k int, engine sebmc.Engine, opts sebmc.Options, workers int, deepen, witness, stats bool) int {
	jobs := make([]sebmc.Job, len(paths))
	for i, p := range paths {
		sys, err := loadModel(p)
		if err != nil {
			fatal(err)
		}
		jobs[i] = sebmc.Job{Sys: sys, K: k, Engine: engine, Opts: opts}
	}
	start := time.Now()
	exit := 0
	if deepen {
		for i, d := range sebmc.DeepenMany(jobs, workers) {
			printDeepen(jobs[i].Sys.Name, d, 0, witness)
			exit = worseCode(exit, exitCode(d.Status))
		}
	} else {
		for i, r := range sebmc.CheckMany(jobs, workers) {
			printCheck(jobs[i].Sys.Name, k, engine, "", r, 0, witness, stats)
			exit = worseCode(exit, exitCode(r.Status))
		}
	}
	fmt.Printf("batch: %d models in %v\n", len(jobs), time.Since(start).Round(time.Millisecond))
	return exit
}

func printCheck(name string, k int, engine sebmc.Engine, sem string, r sebmc.Result, elapsed time.Duration, witness, stats bool) {
	fmt.Printf("model %s, bound %d (%s", name, k, engine)
	if engine == sebmc.EnginePortfolio && r.DecidedBy != "" {
		fmt.Printf(" won by %s", r.DecidedBy)
	}
	if sem != "" {
		fmt.Printf(", %s", sem)
	}
	fmt.Printf("): %v", r.Status)
	if elapsed > 0 {
		fmt.Printf(" in %v", elapsed.Round(time.Millisecond))
	}
	fmt.Println()
	fmt.Printf("formula: %d vars, %d clauses", r.Formula.Vars, r.Formula.Clauses)
	if r.Formula.Universals > 0 {
		fmt.Printf(", %d universals, %d alternations", r.Formula.Universals, r.Formula.Alternations)
	}
	fmt.Println()
	if stats {
		fmt.Printf("stats: conflicts=%d nodes=%d clause-db-peak=%dB\n", r.Conflicts, r.Nodes, r.PeakBytes)
	}
	if r.Status == sebmc.Reachable && r.Witness != nil {
		if err := r.Witness.Validate(r.System); err != nil {
			fatal(fmt.Errorf("bmc: internal error: invalid witness: %v", err))
		}
		fmt.Println("witness validated")
		if witness {
			fmt.Print(r.Witness)
		}
	}
}

func printDeepen(name string, d sebmc.DeepenResult, elapsed time.Duration, witness bool) {
	fmt.Printf("model %s: %v", name, d.Status)
	if d.FoundAt >= 0 {
		fmt.Printf(" at bound %d", d.FoundAt)
	}
	if d.DecidedBy != "" {
		fmt.Printf(" (%s)", d.DecidedBy)
	}
	fmt.Printf(" after %d iterations", d.Iterations)
	if elapsed > 0 {
		fmt.Printf(" in %v", elapsed.Round(time.Millisecond))
	}
	fmt.Println()
	if d.Witness != nil && d.System != nil {
		if err := d.Witness.Validate(d.System); err != nil {
			fatal(fmt.Errorf("bmc: internal error: invalid witness: %v", err))
		}
		fmt.Println("witness validated")
		if witness {
			fmt.Print(d.Witness)
		}
	}
}

func loadModel(path string) (*sebmc.System, error) {
	switch {
	case strings.HasSuffix(path, ".msl"):
		return sebmc.LoadMSLFile(path)
	case strings.HasSuffix(path, ".aag"):
		return sebmc.LoadAIGERFile(path, 0)
	}
	return nil, fmt.Errorf("bmc: unsupported model format %q (want .msl or .aag)", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
