package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	sebmc "repro"
	"repro/internal/bench"
	"repro/internal/explicit"
	"repro/internal/model"
)

// The reference-verdict table every run is gated against. It comes from
// an independent source, never from the engines under test: the
// explicit-state oracle (internal/explicit) for models with at most
// oracleMaxLatches state variables and oracleMaxInputs inputs, and the
// models' construction for the rest — factoring targets by trial
// division, planted deep counterexamples by their planted depth.
// reference_test.go regenerates it and compares it with the committed
// file.
//
//go:embed reference.json
var referenceJSON []byte

const (
	oracleMaxLatches = 20
	oracleMaxInputs  = 12
)

// reference maps model names to known answers.
type reference struct {
	// Exact maps "<model>@<k>" to the exact-k verdict, REACHABLE or
	// UNREACHABLE.
	Exact map[string]string `json:"exact"`
	// Shortest maps "<model>" to the depth of its shortest
	// counterexample, -1 when no bad state is reachable (SAFE).
	Shortest map[string]int `json:"shortest"`
	// Source maps "<model>" to where its answers came from: "explicit"
	// or "construction".
	Source map[string]string `json:"source"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	return &ref, nil
}

func exactKey(model string, k int) string { return model + "@" + strconv.Itoa(k) }

// buildReference computes the table anew from the oracle and the
// construction rules.
func buildReference() (*reference, error) {
	ref := &reference{Exact: map[string]string{}, Shortest: map[string]int{}, Source: map[string]string{}}
	for _, fam := range bench.Families() {
		if err := ref.addModel(fam.Name, fam.Build(), bench.Bounds); err != nil {
			return nil, err
		}
	}
	for _, in := range deepPool() {
		// Planted by construction: DeepCounter counts from 0 and first
		// reaches its target at step depth; DeepLFSR checks by simulation
		// that its target first occurs at step depth.
		ref.Shortest[in.name] = in.depth
		ref.Source[in.name] = "construction"
	}
	zipfBounds := make([]int, zipfBoundMax+1)
	for k := range zipfBounds {
		zipfBounds[k] = k
	}
	for i := 0; i < zipfModels+zipfFresh; i++ {
		if err := ref.addModel(zipfModelName(i), zipfModel(i), zipfBounds); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// addModel records exact-k answers at the given bounds and the shortest
// counterexample depth of one model.
func (ref *reference) addModel(name string, sys *model.System, bounds []int) error {
	if sys.NumStateVars() <= oracleMaxLatches && sys.NumInputs() <= oracleMaxInputs {
		// Bounds below the shortest counterexample, and every bound of a
		// safe model, are unreachable without a layer-by-layer search.
		c := explicit.New(sys)
		d := c.ShortestCounterexample()
		for _, k := range bounds {
			ref.Exact[exactKey(name, k)] = verdictName(d >= 0 && k >= d && c.ReachableExact(k))
		}
		ref.Shortest[name] = d
		ref.Source[name] = "explicit"
		return nil
	}
	// Too large for the oracle: the factoring circuits. A Factorizer
	// loads both operand registers from free inputs every step and is
	// bad when their product equals the target with both operands above
	// one, so it is reachable at every k ≥ 1 exactly when the target has
	// such a factorization that fits the operand width, and never at k=0
	// (the registers start at zero).
	w, target, ok := parseFactorizer(sys.Name)
	if !ok {
		return fmt.Errorf("reference: %s (%d latches, %d inputs) is too large for the oracle and has no construction rule",
			name, sys.NumStateVars(), sys.NumInputs())
	}
	factorable := hasFactorization(target, w)
	for _, k := range bounds {
		ref.Exact[exactKey(name, k)] = verdictName(factorable && k >= 1)
	}
	ref.Shortest[name] = -1
	if factorable {
		ref.Shortest[name] = 1
	}
	ref.Source[name] = "construction"
	return nil
}

func verdictName(reachable bool) string {
	if reachable {
		return sebmc.Reachable.String()
	}
	return sebmc.Unreachable.String()
}

// parseFactorizer reads width and target back out of a Factorizer's
// name, "factor<w>-t<target>".
func parseFactorizer(name string) (int, uint64, bool) {
	rest, ok := strings.CutPrefix(name, "factor")
	if !ok {
		return 0, 0, false
	}
	ws, ts, ok := strings.Cut(rest, "-t")
	if !ok {
		return 0, 0, false
	}
	w, err1 := strconv.Atoi(ws)
	t, err2 := strconv.ParseUint(ts, 10, 64)
	if err1 != nil || err2 != nil || w <= 0 || w > 32 {
		return 0, 0, false
	}
	return w, t, true
}

// hasFactorization reports whether target = a·b with 1 < a, b < 2^w, by
// trial division.
func hasFactorization(target uint64, w int) bool {
	limit := uint64(1) << uint(w)
	for a := uint64(2); a*a <= target; a++ {
		if target%a == 0 {
			b := target / a
			if a < limit && b < limit {
				return true
			}
		}
	}
	return false
}

// checkExact gates an exact-k verdict. Undecided answers pass.
func (ref *reference) checkExact(name string, k int, st sebmc.Status) error {
	if st != sebmc.Reachable && st != sebmc.Unreachable {
		return nil
	}
	want, ok := ref.Exact[exactKey(name, k)]
	if !ok {
		return fmt.Errorf("%s@k%d: no reference verdict", name, k)
	}
	if st.String() != want {
		return fmt.Errorf("%s@k%d: got %v, reference says %s", name, k, st, want)
	}
	return nil
}

// checkDeepen gates a deepening run to maxBound: REACHABLE must sit at
// the shortest depth, UNREACHABLE needs no counterexample within
// maxBound.
func (ref *reference) checkDeepen(name string, maxBound int, st sebmc.Status, foundAt int) error {
	d, ok := ref.Shortest[name]
	if !ok {
		return fmt.Errorf("%s: no reference depth", name)
	}
	switch st {
	case sebmc.Reachable:
		if foundAt != d {
			return fmt.Errorf("%s: deepen found a counterexample at %d, reference depth %d", name, foundAt, d)
		}
	case sebmc.Unreachable:
		if d >= 0 && d <= maxBound {
			return fmt.Errorf("%s: deepen to %d says UNREACHABLE, reference depth %d", name, maxBound, d)
		}
	}
	return nil
}

// checkProve gates an unbounded verdict on status only: the race winner
// is timing-dependent, and interpolation's counterexamples are valid but
// not always shortest, so a REACHABLE only has to be no shorter than the
// reference depth.
func (ref *reference) checkProve(name string, st sebmc.Status, k int) error {
	d, ok := ref.Shortest[name]
	if !ok {
		return fmt.Errorf("%s: no reference depth", name)
	}
	switch st {
	case sebmc.Safe:
		if d >= 0 {
			return fmt.Errorf("%s: prove says SAFE, reference depth %d", name, d)
		}
	case sebmc.Reachable:
		if d < 0 || k < d {
			return fmt.Errorf("%s: prove says REACHABLE at %d, reference depth %d", name, k, d)
		}
	case sebmc.Unreachable:
		if d >= 0 && d <= k {
			return fmt.Errorf("%s: prove refuted bounds up to %d, reference depth %d", name, k, d)
		}
	}
	return nil
}
