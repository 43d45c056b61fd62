package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	sebmc "repro"
	"repro/internal/bmc"
	"repro/internal/circuits"
	"repro/internal/model"
	"repro/internal/sat"
	"repro/internal/tseitin"
)

// deep-bug: E11-style deepening with sat-incr. sebmc.Deepen runs with
// ScheduleLinear (exact-k, k → k+1) and ScheduleGeometric (at-most-k
// through the self-loop transform, k → 2k plus bisection) on DeepCounter
// and DeepLFSR(12, 0x1053, ·) instances at moderate depths, under a
// deterministic conflict budget per solver query. The work is in the
// incremental unroller, the deepening schedulers, assumption and trail
// reuse in the persistent CDCL solver, and model.AddSelfLoop.
const (
	deepConflicts = 20000 // CDCL conflicts per incremental query
	deepLFSRBits  = 12
	deepLFSRTaps  = 0x1053
	// deepDrawFrac is the share of each family's depth pool a pass
	// draws: large, so that any two seeds share most of their instances
	// and the pass cost does not swing with the draw.
	deepDrawFrac = 0.75
)

// The depth pools. Geometric deepening pays the at-most-k cost on every
// probe, so its run time climbs steeply — and, for the LFSR, erratically
// — with depth; the pools stop where every instance is decided well
// within deepConflicts.
var (
	deepCounterDepths = depthRange(24, 62)
	deepLFSRDepths    = depthRange(10, 20)
)

func depthRange(lo, hi int) []int {
	var out []int
	for d := lo; d <= hi; d++ {
		out = append(out, d)
	}
	return out
}

// deepInstance is one planted deep counterexample.
type deepInstance struct {
	name   string
	family string // deep-counter or deep-lfsr
	depth  int
}

func (in deepInstance) build() *model.System {
	if in.family == "deep-counter" {
		return circuits.DeepCounter(uint64(in.depth))
	}
	return circuits.DeepLFSR(deepLFSRBits, deepLFSRTaps, in.depth)
}

func newDeepInstance(family string, d int) deepInstance {
	return deepInstance{name: fmt.Sprintf("%s-%d", family, d), family: family, depth: d}
}

// deepPool lists every instance any seed can draw.
func deepPool() []deepInstance {
	var out []deepInstance
	for _, d := range deepCounterDepths {
		out = append(out, newDeepInstance("deep-counter", d))
	}
	for _, d := range deepLFSRDepths {
		out = append(out, newDeepInstance("deep-lfsr", d))
	}
	return out
}

// deepItem is one Deepen call of the pass.
type deepItem struct {
	Instance string `json:"instance"`
	Family   string `json:"family"`
	Depth    int    `json:"depth"`
	Schedule string `json:"schedule"` // linear or geometric
	MaxBound int    `json:"max_bound"`
}

// deepDraw is the seed's pass: deepDrawFrac of each family's depth pool,
// drawn without replacement. Each drawn instance is deepened three
// times: linearly and geometrically to twice its depth (REACHABLE at
// the planted depth; the geometric schedule's doubling overshoots and
// bisects back), and linearly to one below its depth (UNREACHABLE). The
// order is shuffled by the same seed.
func deepDraw(seed int64) []deepItem {
	rng := rand.New(rand.NewSource(seed))
	var out []deepItem
	for _, fam := range []struct {
		name   string
		depths []int
	}{{"deep-counter", deepCounterDepths}, {"deep-lfsr", deepLFSRDepths}} {
		n := int(math.Ceil(deepDrawFrac * float64(len(fam.depths))))
		picked := rng.Perm(len(fam.depths))[:n]
		sort.Ints(picked)
		for _, p := range picked {
			in := newDeepInstance(fam.name, fam.depths[p])
			out = append(out,
				deepItem{in.name, in.family, in.depth, "linear", 2 * in.depth},
				deepItem{in.name, in.family, in.depth, "linear", in.depth - 1},
				deepItem{in.name, in.family, in.depth, "geometric", 2 * in.depth})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func runDeep(cfg config) (*report, error) {
	rep := newReport()
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	items := deepDraw(cfg.seed)
	texts, setupSecs, err := timeSetup(setupRounds, deepSetup)
	if err != nil {
		return nil, err
	}
	w := offlineWorkload{
		calls: len(items),
		call: func(i int, tr *tracer, root int) callResult {
			it := items[i]
			if tr == nil {
				return deepFacade(it, texts[it.Instance], ref)
			}
			return deepTraced(it, texts[it.Instance], ref, tr, i, root)
		},
		layers: deepLayers,
		setup: func() error {
			_, err := deepSetup()
			return err
		},
	}
	if err := runOffline(cfg, w, setupSecs, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// deepSetup builds every instance of the pool and serializes it to AAG
// text, so set-up is the same work whatever the seed draws.
func deepSetup() (map[string]string, error) {
	texts := map[string]string{}
	for _, in := range deepPool() {
		var b strings.Builder
		if err := sebmc.WriteAIGER(in.build(), &b); err != nil {
			return nil, fmt.Errorf("serialize %s: %w", in.name, err)
		}
		texts[in.name] = b.String()
	}
	return texts, nil
}

func deepOptions(sched string) (sebmc.Options, error) {
	s, err := sebmc.ParseSchedule(sched)
	return sebmc.Options{ConflictBudget: deepConflicts, Schedule: s}, err
}

// deepOutcome is what the gate and the self-tests compare between the
// facade call and the traced decomposition.
type deepOutcome struct {
	status     sebmc.Status
	foundAt    int
	iterations int
	conflicts  int64
}

func deepFacade(it deepItem, text string, ref *reference) callResult {
	out, err := deepFacadeOutcome(it, text)
	return gateDeep(it, out, err, ref)
}

func deepFacadeOutcome(it deepItem, text string) (deepOutcome, error) {
	sys, err := sebmc.LoadAIGER(strings.NewReader(text), 0)
	if err != nil {
		return deepOutcome{}, err
	}
	opts, err := deepOptions(it.Schedule)
	if err != nil {
		return deepOutcome{}, err
	}
	d := sebmc.Deepen(sys, it.MaxBound, sebmc.EngineSATIncr, opts)
	if d.Err != nil {
		return deepOutcome{}, d.Err
	}
	if err := validateDeepWitness(d); err != nil {
		return deepOutcome{}, err
	}
	return deepOutcome{status: d.Status, foundAt: d.FoundAt, iterations: d.Iterations}, nil
}

func validateDeepWitness(d sebmc.DeepenResult) error {
	if d.Status != sebmc.Reachable {
		return nil
	}
	if d.Witness == nil {
		return fmt.Errorf("REACHABLE without a witness")
	}
	if err := d.Witness.Validate(d.System); err != nil {
		return fmt.Errorf("witness does not replay: %w", err)
	}
	return nil
}

func gateDeep(it deepItem, out deepOutcome, err error, ref *reference) callResult {
	name := fmt.Sprintf("%s deepen %s to %d", it.Schedule, it.Instance, it.MaxBound)
	if err != nil {
		return callResult{wrong: fmt.Errorf("%s: %w", name, err)}
	}
	res := callResult{decided: out.status == sebmc.Reachable || out.status == sebmc.Unreachable}
	if err := ref.checkDeepen(it.Instance, it.MaxBound, out.status, out.foundAt); err != nil {
		res.wrong = fmt.Errorf("%s: %w", name, err)
	}
	return res
}

func deepTraced(it deepItem, text string, ref *reference, tr *tracer, req, root int) callResult {
	counts := map[string]float64{}
	out, err := deepDecomposed(it, text, tr, req, root, counts)
	res := gateDeep(it, out, err, ref)
	res.counts = counts
	return res
}

// deepDecomposed is sebmc.Deepen(EngineSATIncr) taken apart. Linear:
// one bmc.IncrementalUnroller under exact-k, its CheckBound driven by
// bmc.DeepenLinear for k = 0, 1, … until the first counterexample.
// Geometric: the self-loop transform, one unroller over it, and
// bmc.DeepenGeometricFrom driving its CheckBound — what the facade does
// under at-most-k. Every CheckBound is one "incr.query" span.
func deepDecomposed(it deepItem, text string, tr *tracer, req, root int, counts map[string]float64) (deepOutcome, error) {
	sp := tr.begin("aig.parse", req, root)
	sys, err := sebmc.LoadAIGER(strings.NewReader(text), 0)
	tr.end(sp)
	if err != nil {
		return deepOutcome{}, err
	}
	maxBound := it.MaxBound
	iopts := bmc.IncrementalOptions{Semantics: bmc.Exact, Mode: tseitin.Full, SAT: sat.Options{ConflictBudget: deepConflicts}}
	layer := "deepen." + it.Schedule
	if it.MaxBound < it.Depth {
		layer = "deepen.refute" // kept apart, so linear and geometric compare on the same runs
	}
	run := tr.begin(layer, req, root)
	var u *bmc.IncrementalUnroller
	if it.Schedule == "geometric" {
		sp = tr.begin("model.selfloop", req, run)
		sl := model.AddSelfLoop(sys)
		tr.end(sp)
		u = bmc.NewIncrementalUnroller(sl, iopts)
	} else {
		u = bmc.NewIncrementalUnroller(sys, iopts)
	}
	var clausesSeen float64
	query := func(k int) bmc.Result {
		sp := tr.begin("incr.query", req, run)
		r := u.CheckBound(k)
		tr.end(sp)
		clausesSeen += float64(r.Formula.Clauses)
		return r
	}
	var d bmc.DeepenResult
	if it.Schedule == "geometric" {
		d = bmc.DeepenGeometricFrom(-1, maxBound, 0, query)
	} else {
		d = bmc.DeepenLinear(sys, maxBound, func(_ *model.System, k int) bmc.Result { return query(k) })
	}
	tr.end(run)
	st := u.Stats()
	counts["deepen.queries"] += float64(st.Bounds)
	counts["incr.conflicts"] += float64(st.Conflicts)
	counts["incr.clauses_added"] += float64(st.ClausesAdded)
	counts["incr.clauses_seen"] += clausesSeen
	if d.Status == bmc.Reachable {
		sp = tr.begin("witness.validate", req, root)
		err = validateDeepWitness(d)
		tr.end(sp)
		if err != nil {
			return deepOutcome{}, err
		}
	}
	return deepOutcome{status: d.Status, foundAt: d.FoundAt, iterations: d.Iterations, conflicts: st.Conflicts}, nil
}

func deepLayers(rep *report, self, counts map[string]float64, tr *tracer, passes int) {
	setLayer(rep, "aig.parse_ms", self["aig.parse"])
	setLayer(rep, "model.selfloop_ms", self["model.selfloop"])
	setLayer(rep, "witness.validate_ms", self["witness.validate"])
	// Whole deepening runs, inclusive of their queries: the at-most-k
	// cost shows as geometric against linear on the same instances.
	var lin, geo float64
	for _, d := range tr.durations("deepen.linear") {
		lin += ms(d)
	}
	for _, d := range tr.durations("deepen.geometric") {
		geo += ms(d)
	}
	setLayer(rep, "deepen.linear_ms", lin/float64(passes))
	setLayer(rep, "deepen.geometric_ms", geo/float64(passes))
	var q []float64
	for _, d := range tr.durations("incr.query") {
		q = append(q, ms(d))
	}
	setLayer(rep, "deepen.query_p50_ms", quantile(q, 0.5))
	setLayer(rep, "deepen.query_max_ms", quantile(q, 1))
	setLayer(rep, "deepen.queries", counts["deepen.queries"])
	setLayer(rep, "incr.conflicts", counts["incr.conflicts"])
	setLayer(rep, "incr.clauses_added", counts["incr.clauses_added"])
	// Share of each query's clauses already in the persistent solver.
	setLayer(rep, "incr.assumption_reuse_frac", 1-frac(counts["incr.clauses_added"], counts["incr.clauses_seen"]))
}
