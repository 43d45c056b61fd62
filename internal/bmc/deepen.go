package bmc

import (
	"repro/internal/model"
)

// DeepenResult records an iterative-deepening run: the complete
// bounded-model-checking procedure that increases the bound until a
// counterexample is found or the limit is reached. The iteration count
// is the quantity compared in experiments E4 and E11: linear deepening
// performs O(D) iterations to cover diameter D, the geometric and
// squaring schedules O(log D).
type DeepenResult struct {
	Status      Status
	FoundAt     int // bound at which a counterexample appeared (-1 if none)
	Iterations  int // solver invocations performed
	BoundsTried []int
	// Witness is the counterexample trace, when the deciding engine
	// produces one; it validates against System (the transition system
	// actually encoded, post-transform under at-most-k semantics).
	Witness *Witness
	System  *model.System
	// DecidedBy names the engine that completed the run. The sebmc
	// facade fills it on every deepening; under the portfolio engine it
	// is the race winner.
	DecidedBy string
	// Err reports an internal failure (a recovered solver panic, a
	// poisoned session) rather than a resource-budget Unknown; Status
	// is Unknown whenever it is set.
	Err error
}

// CheckFunc answers one bounded reachability query at bound k.
type CheckFunc func(sys *model.System, k int) Result

// DeepenLinear runs the classical deepening loop: k = 0, 1, 2, … maxBound
// with at-most-k unnecessary because each exact-k query extends the
// previous one — the driver uses the semantics baked into check.
func DeepenLinear(sys *model.System, maxBound int, check CheckFunc) DeepenResult {
	return DeepenLinearFrom(-1, maxBound, func(k int) Result { return check(sys, k) })
}

// DeepenLinearFrom is DeepenLinear for callers that already hold a
// proof that bounds 0..proven are Unreachable (proven = -1 for no prior
// knowledge): the loop steps k = proven+1, …, maxBound and stops at the
// first counterexample. The linear twin of DeepenGeometricFrom; warm
// sessions use it to resume from their proven prefix.
func DeepenLinearFrom(proven, maxBound int, check func(k int) Result) DeepenResult {
	res := DeepenResult{FoundAt: -1}
	for k := max(proven+1, 0); k <= maxBound; k++ {
		res.Iterations++
		res.BoundsTried = append(res.BoundsTried, k)
		r := check(k)
		switch r.Status {
		case Reachable:
			res.Status = Reachable
			res.FoundAt = k
			res.Witness = r.Witness
			res.System = r.System
			return res
		case Unknown:
			res.Status = Unknown
			return res
		}
	}
	res.Status = Unreachable
	return res
}

// DeepenSquaring runs the squaring loop: k = 0, 1, 2, 4, 8, … over the
// powers of two that do not exceed maxBound. The check function must
// implement at-most-k semantics (self-loop) so that every bound below
// each power of two is covered, as the paper prescribes.
//
// On Reachable, FoundAt is the first scheduled bound whose at-most
// query succeeds — the shortest counterexample lies in
// (previous bound, FoundAt]; the schedule cannot refine further because
// the squaring encoding only answers power-of-two bounds.
// DeepenGeometric reports exact shortest depths for engines that can
// answer arbitrary bounds.
//
// A non-power-of-two maxBound leaves a gap past the largest scheduled
// power of two. The loop closes it with one extra at-most query at
// maxBound itself, which the squaring engine answers at the next power
// of two up: Unreachable there covers every bound ≤ maxBound and the
// run soundly reports Unreachable, but Reachable there only places the
// counterexample somewhere ≤ the rounded bound — possibly past
// maxBound — so the run reports Unknown rather than guess. Pass a
// power-of-two maxBound to avoid the gap probe entirely.
func DeepenSquaring(sys *model.System, maxBound int, check CheckFunc) DeepenResult {
	res := DeepenResult{FoundAt: -1}
	if maxBound < 0 {
		res.Status = Unreachable
		return res
	}
	bounds := []int{0}
	for k := 1; k <= maxBound; k *= 2 {
		bounds = append(bounds, k)
	}
	if last := bounds[len(bounds)-1]; last < maxBound {
		bounds = append(bounds, maxBound) // gap probe, rounded up by the engine
	}
	for _, k := range bounds {
		res.Iterations++
		res.BoundsTried = append(res.BoundsTried, k)
		r := check(sys, k)
		switch r.Status {
		case Reachable:
			if k == maxBound && k&(k-1) != 0 {
				// The gap probe ran at the next power of two: the
				// counterexample may lie beyond maxBound, and the
				// encoding has no bound left that could localize it.
				res.Status = Unknown
				return res
			}
			res.Status = Reachable
			res.FoundAt = k
			res.Witness = r.Witness
			res.System = r.System
			return res
		case Unknown:
			res.Status = Unknown
			return res
		}
	}
	res.Status = Unreachable
	return res
}

// DefaultGeometricRatio is the bound-growth factor DeepenGeometric uses
// when the caller passes a ratio ≤ 1: classic doubling, k → 2k.
const DefaultGeometricRatio = 2.0

// DeepenGeometric runs the geometric deepening schedule: bounds grow by
// the given ratio (≤ 1 means DefaultGeometricRatio) from 0 up to
// maxBound, which is always the final bound queried when no
// counterexample appears earlier. Once a bound answers Reachable, the
// last growth interval is refined by binary search, so FoundAt is the
// exact shortest counterexample depth — the same answer linear
// deepening gives, in O(log maxBound) instead of O(maxBound) solver
// invocations.
//
// The check function must implement at-most-k semantics (self-loop
// transform): an Unreachable answer at bound k must cover every bound
// ≤ k, and reachability must be monotone in k — both are what make
// skipping bounds and bisecting the last interval sound.
func DeepenGeometric(sys *model.System, maxBound int, ratio float64, check CheckFunc) DeepenResult {
	return DeepenGeometricFrom(-1, maxBound, ratio, func(k int) Result { return check(sys, k) })
}

// DeepenGeometricFrom is DeepenGeometric for callers that already hold
// a proof that bounds 0..proven are Unreachable (proven = -1 for no
// prior knowledge): the schedule starts at proven+1 and the refinement
// never probes at or below proven. Warm sessions use it to resume the
// geometric schedule from their proven prefix.
func DeepenGeometricFrom(proven, maxBound int, ratio float64, check func(k int) Result) DeepenResult {
	res := DeepenResult{FoundAt: -1}
	if ratio <= 1 {
		ratio = DefaultGeometricRatio
	}
	if proven >= maxBound {
		res.Status = Unreachable
		return res
	}
	lo := proven // invariant: bounds 0..lo are Unreachable
	k := lo + 1
	if k < 0 {
		k = 0
	}
	for {
		res.Iterations++
		res.BoundsTried = append(res.BoundsTried, k)
		r := check(k)
		switch r.Status {
		case Reachable:
			// Shortest counterexample is in (lo, k]: bisect.
			return refineGeometric(lo, k, r, res, check)
		case Unknown:
			res.Status = Unknown
			return res
		}
		lo = k
		if k >= maxBound {
			res.Status = Unreachable
			return res
		}
		next := int(float64(k) * ratio)
		if next <= k {
			next = k + 1
		}
		if next > maxBound {
			next = maxBound
		}
		k = next
	}
}

// refineGeometric binary-searches the smallest m in (lo, hi] whose
// at-most-m query is Reachable, given that hi already answered
// Reachable (result rHi) and every bound ≤ lo is Unreachable. Sound
// because at-most-k reachability is monotone in k.
func refineGeometric(lo, hi int, rHi Result, res DeepenResult, check func(k int) Result) DeepenResult {
	best := rHi
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		res.Iterations++
		res.BoundsTried = append(res.BoundsTried, mid)
		r := check(mid)
		switch r.Status {
		case Reachable:
			hi = mid
			best = r
		case Unreachable:
			lo = mid
		default:
			res.Status = Unknown
			return res
		}
	}
	res.Status = Reachable
	res.FoundAt = hi
	res.Witness = best.Witness
	res.System = best.System
	return res
}
