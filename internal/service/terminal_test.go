package service

// Tests for terminal SAFE verdicts: the prove/interp request paths, the
// bound-free cache entry that short-circuits any later bound, the
// terminal-hit metric, and the certificate-gated replication adoption.

import (
	"strings"
	"testing"

	sebmc "repro"
	"repro/internal/interp"
)

// proveCert computes a model's invariant certificate directly through
// the interpolation engine — deterministic, unlike the Prove race.
func proveCert(t *testing.T, sys *sebmc.System) *sebmc.Certificate {
	t.Helper()
	ir := interp.Solve(sys, interp.Options{})
	if ir.Invariant == nil {
		t.Fatalf("interp did not certify the model: %v", ir.Status)
	}
	return &sebmc.Certificate{Kind: sebmc.CertInvariant, Invariant: ir.Invariant}
}

func TestServiceTerminalShortCircuit(t *testing.T) {
	srv, url := newTestServer(t, Config{Workers: 2, DefaultEngine: sebmc.EngineSAT})

	// engine=interp proves the model once, with the certificate echoed.
	r := checkWait(t, url, CheckRequest{Model: safeMSL, Bound: 4, Engine: "interp", Certificate: true})
	if r.Status != "SAFE" || !r.Terminal {
		t.Fatalf("interp on safe model: %s terminal=%v, want terminal SAFE", r.Status, r.Terminal)
	}
	if !r.CertificateValidated || r.Certificate == "" {
		t.Fatalf("terminal verdict served without a replayed certificate: %+v", r)
	}
	// The echoed certificate replays independently: parse it back and
	// re-check it by substitution against our own parse of the model.
	cert, err := sebmc.ParseCertificate(r.Certificate)
	if err != nil {
		t.Fatalf("echoed certificate does not parse: %v", err)
	}
	sys, err := sebmc.LoadMSL(safeMSL)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Validate(sys.Reduce()); err != nil {
		t.Fatalf("echoed certificate does not replay: %v", err)
	}

	// A 10x deeper request — different bound, different engine, deepen,
	// either semantics — answers from the bound-free terminal entry.
	for _, req := range []CheckRequest{
		{Model: safeMSL, Bound: 40, Certificate: true},
		{Model: safeMSL, Bound: 123, Semantics: "atmost"},
		{Model: safeMSL, Bound: 40, Deepen: true},
		{Model: safeMSL, Bound: 4, Engine: "interp"},
	} {
		r := checkWait(t, url, req)
		if !r.Cached || r.Status != "SAFE" || !r.Terminal {
			t.Fatalf("bound %d after terminal fill: cached=%v %s terminal=%v, want cached terminal SAFE",
				req.Bound, r.Cached, r.Status, r.Terminal)
		}
		if r.Bound != req.Bound {
			t.Fatalf("cached terminal answer reports bound %d, asked %d", r.Bound, req.Bound)
		}
		if req.Certificate && r.Certificate == "" {
			t.Fatal("cache hit did not echo the certificate")
		}
		if !req.Certificate && r.Certificate != "" {
			t.Fatal("certificate served without being asked for")
		}
	}

	m := srv.Metrics()
	if m.Cache.TerminalHits < 4 {
		t.Fatalf("terminal_hits = %d, want >= 4", m.Cache.TerminalHits)
	}
	if m.Cache.TerminalHits > m.Cache.Hits {
		t.Fatalf("terminal hits (%d) exceed cache hits (%d)", m.Cache.TerminalHits, m.Cache.Hits)
	}
}

func TestServiceProveFlag(t *testing.T) {
	_, url := newTestServer(t, Config{Workers: 2, DefaultEngine: sebmc.EnginePortfolio})

	// prove on a safe model: terminal SAFE from whichever arm wins. The
	// k-induction arm proves without an artifact, so the certificate is
	// optional — but when present it must have been replayed.
	r := checkWait(t, url, CheckRequest{Model: safeMSL, Bound: 16, Prove: true, Certificate: true})
	if r.Status != "SAFE" || !r.Terminal {
		t.Fatalf("prove on safe model: %s terminal=%v, want terminal SAFE", r.Status, r.Terminal)
	}
	if r.Certificate != "" && !r.CertificateValidated {
		t.Fatalf("certificate echoed without validation: %+v", r)
	}

	// prove on a reachable model: a plain REACHABLE with a replayed
	// witness, never terminal.
	r = checkWait(t, url, CheckRequest{Model: cexMSL, Bound: 16, Prove: true, Witness: true})
	if r.Status != "REACHABLE" || r.Terminal {
		t.Fatalf("prove on cex model: %s terminal=%v, want non-terminal REACHABLE", r.Status, r.Terminal)
	}
	if !r.WitnessValidated || r.Witness == "" {
		t.Fatalf("reachable prove served without a replayed witness: %+v", r)
	}

	// prove+deepen is rejected at submission.
	var eb errorBody
	if code := postJSON(t, url+"/v1/check", CheckRequest{Model: safeMSL, Bound: 4, Prove: true, Deepen: true}, &eb); code != 400 {
		t.Fatalf("prove+deepen: HTTP %d, want 400", code)
	}
}

// TestServiceTerminalAdoptGauntlet drives adoptReplica through the
// terminal cases: a valid certificate adopts, and every flavor of
// unverifiable terminal claim — tampered, missing, wrong-kind, filed
// under a bounded key, unvalidated-on-repair — is rejected, not cached.
func TestServiceTerminalAdoptGauntlet(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})

	sys, err := sebmc.LoadMSL(safeMSL)
	if err != nil {
		t.Fatal(err)
	}
	aag := aagSource(t, sys)
	shipped, err := sebmc.LoadAIGER(strings.NewReader(aag), 0)
	if err != nil {
		t.Fatal(err)
	}
	hash := sebmc.ModelHash(shipped)
	cert := proveCert(t, sys)

	entry := func() replicaEntry {
		return replicaEntry{
			Key: terminalKey(hash),
			Result: JobResult{
				Status:      "SAFE",
				Bound:       4,
				FoundAt:     -1,
				Terminal:    true,
				Certificate: cert.String(),
			},
			Model: aag,
		}
	}

	t.Run("valid", func(t *testing.T) {
		if err := s.adoptReplica(entry(), true); err != nil {
			t.Fatalf("valid terminal entry rejected: %v", err)
		}
		if !s.cache.has(terminalKey(hash)) {
			t.Fatal("adopted terminal entry not under the bound-free key")
		}
	})

	t.Run("missing-certificate", func(t *testing.T) {
		e := entry()
		e.Result.Certificate = ""
		if err := s.adoptReplica(e, true); err == nil {
			t.Fatal("terminal claim without certificate adopted")
		}
	})

	t.Run("wrong-model-certificate", func(t *testing.T) {
		other, err := sebmc.LoadMSL(`
model othersafe
var a : 4 = 0;
next a = a == 9 ? 0 : a + 1;
bad a == 12;
`)
		if err != nil {
			t.Fatal(err)
		}
		e := entry()
		e.Result.Certificate = proveCert(t, other).String()
		if err := s.adoptReplica(e, true); err == nil {
			t.Fatal("certificate for a different model adopted")
		}
	})

	t.Run("witness-kind-certificate", func(t *testing.T) {
		e := entry()
		e.Result.Certificate = "certificate: witness\nstates 1\n"
		if err := s.adoptReplica(e, true); err == nil {
			t.Fatal("witness-kind certificate accepted for a terminal claim")
		}
	})

	t.Run("bounded-key", func(t *testing.T) {
		e := entry()
		e.Key.Bound = 4
		if err := s.adoptReplica(e, true); err == nil {
			t.Fatal("terminal claim adopted under a bounded key")
		}
	})

	t.Run("repair-unvalidated", func(t *testing.T) {
		e := entry()
		e.Model = ""
		e.Result.CertificateValidated = false
		if err := s.adoptReplica(e, false); err == nil {
			t.Fatal("repair adopted an unvalidated terminal claim")
		}
	})

	t.Run("repair-validated", func(t *testing.T) {
		e := entry()
		e.Model = ""
		e.Result.Certificate = cert.String()
		e.Result.CertificateValidated = true
		if err := s.adoptReplica(e, false); err != nil {
			t.Fatalf("repair rejected a fill-time-validated terminal entry: %v", err)
		}
	})
}
