package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite reference.json from the oracle instead of comparing")

// TestReferenceTableMatchesOracle regenerates the reference-verdict table
// from the explicit-state oracle and the models' construction, and
// compares it with the committed reference.json the runs are gated
// against. Run with -update to rewrite the file.
func TestReferenceTableMatchesOracle(t *testing.T) {
	ref, err := buildReference()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *update {
		if err := os.WriteFile("reference.json", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got, referenceJSON) {
		t.Fatal("reference.json differs from the table the oracle regenerates; rerun with -update and review the diff")
	}
}

// TestReferenceCoversEveryInput checks that every instance or request any
// seed can draw has a reference answer.
func TestReferenceCoversEveryInput(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range deepPool() {
		if _, ok := ref.Shortest[in.name]; !ok {
			t.Errorf("%s: no reference depth", in.name)
		}
	}
	for i := 0; i < zipfModels+zipfFresh; i++ {
		for k := 0; k <= zipfBoundMax; k++ {
			if _, ok := ref.Exact[exactKey(zipfModelName(i), k)]; !ok {
				t.Errorf("%s@%d: no reference verdict", zipfModelName(i), k)
			}
		}
	}
	for _, src := range ref.Source {
		if src != "explicit" && src != "construction" {
			t.Errorf("unknown reference source %q", src)
		}
	}
}
