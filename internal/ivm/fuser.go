package ivm

import (
	"bytes"
	"time"

	"fivm/internal/data"
	"fivm/internal/ring"
)

// runFuser is the sorted-run accumulation engine behind fused delta
// application. A marginalizing plan step can emit many work items that
// project onto the same output key (everything distinguishing them was
// marginalized away); the unfused path pays a hash probe into the output
// relation per item. The fuser instead encodes every item's output key once,
// radix-sorts the items by key, and accumulates each equal-key run into one
// owned payload that is merged exactly once — per distinct key, not per item.
//
// Sorting is pure overhead on steps that produce mostly distinct keys, and
// even on duplicate-heavy steps it only wins when the saved hash probes cost
// more than the sort — which depends on key width, payload width, and how
// hot the scratch table is. So the gate is measured, not modeled, in two
// stages. A duplicate-rate estimate (EWMA of items in vs. distinct keys out,
// observed for free by both paths) rules out steps where sorting cannot
// possibly pay. Steps that pass it are timed: the first few qualifying
// batches alternate between the two modes, after which each batch runs the
// mode with the lower measured ns/item, re-probing the loser periodically so
// the decision tracks shifts in the data. The estimates, key arena, and
// accumulator live per step (or per recursive view delta), which are
// single-threaded by construction — the parallel maintainer gives every
// shard its own engine.
type runFuser[P any] struct {
	keys    [][]byte
	offs    []int
	arena   []byte
	acc     P
	dupEWMA float64

	// Measured merge-phase cost per work item for each mode.
	nsItemFused, nsItemUnfused float64
	fusedN, unfusedN           int
	tick                       int
}

const (
	// fuseMinItems is the batch size below which sorting cannot pay for
	// itself regardless of the duplicate rate.
	fuseMinItems = 32
	// fuseDupThreshold is the estimated duplicate-key rate below which the
	// sorted-run path is never even sampled.
	fuseDupThreshold = 0.4
	// fuseEWMAAlpha is the weight of the newest batch in the duplicate-rate
	// and cost estimates.
	fuseEWMAAlpha = 0.25
	// fuseWarmSamples is how many timed batches of each mode the gate wants
	// before trusting the cost comparison.
	fuseWarmSamples = 3
	// fuseReprobeEvery makes every n-th qualifying batch run the losing mode
	// so its cost estimate stays current (power of two).
	fuseReprobeEvery = 64
)

// eligible reports whether a batch of n work items qualifies for the timed
// fuse-vs-merge decision at all.
func (f *runFuser[P]) eligible(n int) bool {
	return n >= fuseMinItems && f.dupEWMA >= fuseDupThreshold
}

// chooseFused picks the mode for a qualifying batch: alternate while either
// mode lacks warm samples, then the measured winner, with a periodic probe
// of the loser.
func (f *runFuser[P]) chooseFused() bool {
	f.tick++
	if f.fusedN < fuseWarmSamples || f.unfusedN < fuseWarmSamples {
		return f.fusedN <= f.unfusedN
	}
	fusedWins := f.nsItemFused < f.nsItemUnfused
	if f.tick&(fuseReprobeEvery-1) == 0 {
		return !fusedWins
	}
	return fusedWins
}

// noteCost feeds one timed batch (n items, merge phase took elapsed) into
// the chosen mode's cost estimate.
func (f *runFuser[P]) noteCost(fused bool, n int, elapsed time.Duration) {
	c := float64(elapsed) / float64(n)
	if fused {
		if f.fusedN == 0 {
			f.nsItemFused = c
		} else {
			f.nsItemFused += fuseEWMAAlpha * (c - f.nsItemFused)
		}
		f.fusedN++
		return
	}
	if f.unfusedN == 0 {
		f.nsItemUnfused = c
	} else {
		f.nsItemUnfused += fuseEWMAAlpha * (c - f.nsItemUnfused)
	}
	f.unfusedN++
}

// note feeds one batch's observed duplicate rate (n items collapsed to
// distinct output keys) into the estimate.
func (f *runFuser[P]) note(n, distinct int) {
	if n == 0 {
		return
	}
	dup := 1 - float64(distinct)/float64(n)
	f.dupEWMA += fuseEWMAAlpha * (dup - f.dupEWMA)
}

// run sorts items by their proj-encoded output key and merges each equal-key
// run as a single accumulated payload: acc = Σ_run item.p * lift(item.t),
// built with the ring's in-place ops, then merged once under the
// pre-encoded key. lift must return the run item's lift product (valid until
// the next lift call). Returns the number of distinct keys merged.
func (f *runFuser[P]) run(r ring.Ring[P], items []workItem[P], proj data.Projector,
	out *data.Relation[P], lift func(t data.Tuple) *P) int {
	arena := f.arena[:0]
	offs := f.offs[:0]
	for _, it := range items {
		offs = append(offs, len(arena))
		arena = proj.AppendKey(arena, it.t)
	}
	offs = append(offs, len(arena))
	keys := f.keys[:0]
	for i := 0; i+1 < len(offs); i++ {
		keys = append(keys, arena[offs[i]:offs[i+1]:offs[i+1]])
	}
	f.arena, f.offs, f.keys = arena, offs, keys

	data.RadixSortKeyedBytes(keys, items)

	distinct := 0
	for i := 0; i < len(items); {
		j := i + 1
		for j < len(items) && bytes.Equal(keys[j], keys[i]) {
			j++
		}
		it := items[i]
		r.MulInto(&f.acc, it.p, lift(it.t))
		for m := i + 1; m < j; m++ {
			it := items[m]
			r.MulAddInto(&f.acc, it.p, lift(it.t))
		}
		out.MergeProjectedKey(keys[i], proj, it.t, &f.acc)
		distinct++
		i = j
	}
	return distinct
}
