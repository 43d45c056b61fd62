package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/bench"
)

const heldOutSeed = 20261017 // the seed README.md holds out for claims

// TestInputsArePureFunctionsOfTheSeed: the same seed gives byte-identical
// instance lists and request streams, and another seed a different one.
func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	_, latches, err := suiteSetup()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := buildZipfCorpus()
	if err != nil {
		t.Fatal(err)
	}
	draws := map[string]func(seed int64) any{
		"bounded-suite": func(seed int64) any { return suiteDraw(seed, latches) },
		"deep-bug":      func(seed int64) any { return deepDraw(seed) },
		"bmcd-zipf": func(seed int64) any {
			reqs, err := zipfStream(seed, 1000, corpus.inputs)
			if err != nil {
				t.Fatal(err)
			}
			return reqs
		},
	}
	for name, draw := range draws {
		a, b, c := mustJSON(t, draw(1)), mustJSON(t, draw(1)), mustJSON(t, draw(heldOutSeed))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different inputs", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and %d gave the same inputs", name, heldOutSeed)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSuiteDecompositionMatchesFacade: on every instance any seed can
// draw, the traced decomposition returns the facade's verdict, and for
// the deterministic engines its conflict and node counts. Prove is
// compared on status only: its race winner depends on timing.
func TestSuiteDecompositionMatchesFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole instance pool")
	}
	texts, latches, err := suiteSetup()
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range suitePool(latches) {
		want, err := suiteFacadeOutcome(it, texts[it.Family])
		if err != nil {
			t.Fatalf("%v: facade: %v", it, err)
		}
		got, err := suiteDecomposed(it, texts[it.Family], newTracer(), 0, -1, map[string]float64{})
		if err != nil {
			t.Fatalf("%v: decomposition: %v", it, err)
		}
		if got.status != want.status {
			t.Errorf("%v: decomposition says %v, facade %v", it, got.status, want.status)
			continue
		}
		if it.Engine != "prove" && (got.conflicts != want.conflicts || got.nodes != want.nodes) {
			t.Errorf("%v: decomposition effort %d conflicts / %d nodes, facade %d / %d",
				it, got.conflicts, got.nodes, want.conflicts, want.nodes)
		}
	}
}

// suitePool is every item suiteDraw can produce.
func suitePool(latches map[string]int) []suiteItem {
	var out []suiteItem
	for _, fam := range bench.Families() {
		for _, eng := range []string{"sat", "jsat"} {
			for _, k := range bench.Bounds {
				out = append(out, suiteItem{fam.Name, k, eng})
			}
		}
		if latches[fam.Name] <= suiteQBFMaxLatches {
			out = append(out, suiteItem{fam.Name, 1, "qbf-linear"}, suiteItem{fam.Name, 2, "qbf-linear"})
		}
		out = append(out, suiteItem{fam.Name, suiteProveMaxK, "prove"})
	}
	return out
}

// TestDeepDecompositionMatchesFacade: on every deep-bug call any seed
// can draw, the traced decomposition returns the facade's status,
// counterexample depth and number of solver queries.
func TestDeepDecompositionMatchesFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole instance pool")
	}
	texts, err := deepSetup()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range deepPool() {
		for _, it := range []deepItem{
			{in.name, in.family, in.depth, "linear", 2 * in.depth},
			{in.name, in.family, in.depth, "linear", in.depth - 1},
			{in.name, in.family, in.depth, "geometric", 2 * in.depth},
		} {
			want, err := deepFacadeOutcome(it, texts[it.Instance])
			if err != nil {
				t.Fatalf("%v: facade: %v", it, err)
			}
			got, err := deepDecomposed(it, texts[it.Instance], newTracer(), 0, -1, map[string]float64{})
			if err != nil {
				t.Fatalf("%v: decomposition: %v", it, err)
			}
			if got.status != want.status || got.foundAt != want.foundAt || got.iterations != want.iterations {
				t.Errorf("%v: decomposition %v at %d in %d queries, facade %v at %d in %d",
					it, got.status, got.foundAt, got.iterations, want.status, want.foundAt, want.iterations)
			}
		}
	}
}
