package core

import (
	"math"
	"slices"
	"sort"

	"github.com/gautrais/stability/internal/retail"
)

// Tracker computes the stability series of one customer incrementally: feed
// windows in chronological order with Observe and read each window's
// stability, blame list, and bookkeeping from the returned Result.
//
// State is columnar: two parallel slices hold the repertoire in ascending
// item order — items[i] has been bought in counts[i] counted windows — plus
// the global counted-window count W; the exponent of the significance of
// any item is 2c−W (see the package comment). The canonical iteration is a
// single cache-friendly scan, and each window folds in with one sorted
// merge of repertoire × basket. Memory is O(distinct items), time per
// window is O(distinct items + |uk|). The significance terms α^{2(c−maxC)}
// depend only on the count deficit maxC−c and on α, so they come from a
// process-wide SigTable shared by every tracker with the same α rather
// than being recomputed with math.Exp per item per window.
//
// Trackers are not safe for concurrent use; analyses shard one tracker per
// customer (or reuse one tracker per worker via Reset).
type Tracker struct {
	opts   Options
	logA   float64
	items  []retail.ItemID // ascending item id: the canonical iteration order
	counts []int32         // counts[i] = c of items[i]; counts only grow
	// sig is the grow-only memo of α^{−2d} terms, shared across trackers
	// with the same α. terms caches its latest immutable snapshot so the
	// per-item hot path is one bounds check and a load with no atomics;
	// misses refresh the cache through the table. Both survive Reset.
	sig      *SigTable
	terms    []float64
	maxCount int32 // running max of counts; counts only grow, so never recomputed
	windows  int32 // W: counted prior windows
	started  bool  // a non-empty window has been counted
	seq      int   // observations so far (including uncounted leading ones)

	prevStability float64
	prevDefined   bool

	// lastMaxC, lastW and lastDen are the pre-fold scan state (maxC, W and
	// the denominator Σ S(p,k)) of the latest observed window, kept so
	// ExplainLast can build its blame list after the fold. lastDen is 0
	// when that window was undefined (or nothing has been observed).
	lastMaxC int32
	lastW    int32
	lastDen  float64
}

// Blame attributes part of a stability decrease to one missing item.
type Blame struct {
	// Item is the missing (or, in Present lists, present) item.
	Item retail.ItemID
	// Net is the significance exponent c−l.
	Net int
	// LogSignificance is ln S(p,k) = Net·ln α.
	LogSignificance float64
	// Share is S(p,k) / Σ_q S(q,k): exactly how much stability the item's
	// absence from the window costs. Shares of all seen items sum to 1.
	Share float64
}

// Result describes one observed window.
type Result struct {
	// Seq is the 0-based observation sequence number within the tracker.
	Seq int
	// Stability is the paper's Stability_i^k in [0,1]. When Defined is
	// false (no counted prior history), it is 1 by convention.
	Stability float64
	// Defined reports whether the denominator Σ S(p,k) was positive.
	Defined bool
	// Drop is max(0, previous stability − this stability); 0 on the first
	// defined window.
	Drop float64
	// Missing lists the seen-but-absent items (c>0, not in the window),
	// most significant first — the paper's attrition explanation. Capped
	// at Options.MaxBlame when non-zero.
	Missing []Blame
	// NewItems lists items bought for the first time in this window; they
	// have zero significance and affect nothing yet.
	NewItems []retail.ItemID
	// Counted reports whether this window incremented the prior-window
	// count (false only for leading empty windows under
	// CountFromFirstSeen).
	Counted bool
}

// NewTracker validates opts and returns an empty tracker backed by the
// process-wide shared significance table for opts.Alpha.
func NewTracker(opts Options) (*Tracker, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newTracker(opts, SharedSigTable(opts.Alpha)), nil
}

// NewTrackerWithSigTable is NewTracker on a caller-supplied significance
// table (normally a private NewSigTable). Results are bit-identical to a
// shared-table tracker — the differential tests pin it — so this exists for
// those tests and for callers that want memo isolation, not for speed.
func NewTrackerWithSigTable(opts Options, sig *SigTable) (*Tracker, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if sig == nil {
		sig = SharedSigTable(opts.Alpha)
	}
	return newTracker(opts, sig), nil
}

func newTracker(opts Options, sig *SigTable) *Tracker {
	return &Tracker{
		opts:  opts,
		logA:  math.Log(opts.Alpha),
		sig:   sig,
		terms: sig.snapshot(),
	}
}

// Options returns the tracker's configuration.
func (t *Tracker) Options() Options { return t.opts }

// Seen returns the number of distinct items observed so far.
func (t *Tracker) Seen() int { return len(t.items) }

// Windows returns W, the number of counted windows so far.
func (t *Tracker) Windows() int { return int(t.windows) }

// term returns α^{2(c−maxC)} for the count deficit d = maxC−c ≥ 0. The
// common case is one bounds check and a load from the cached snapshot;
// termSlow grows the shared table.
func (t *Tracker) term(d int32) float64 {
	if int(d) < len(t.terms) {
		return t.terms[d]
	}
	return t.termSlow(d)
}

// termSlow resolves a deficit past the cached snapshot. Deficits at or
// past the table's underflow boundary return 0 immediately — bit-identical
// to the math.Exp the table would run, and the steady-state case for items
// lapsed longer than the memo cap (the profile-guided win: this branch
// replaced the math.Exp calls that dominated BenchmarkTrackerObserve).
// Otherwise the shared table grows (or computes directly past its cap) and
// the cache is refreshed so subsequent windows stay on the fast path.
func (t *Tracker) termSlow(d int32) float64 {
	if d >= t.sig.zeroFrom {
		return 0
	}
	v := t.sig.Term(d)
	t.terms = t.sig.snapshot()
	return v
}

// Observe feeds the next window's item set uk (must be a normalized basket)
// and returns the window's Result. Stability is computed against the state
// before this window (c and l count windows v < k), then the window is
// folded into the counts. The Missing and NewItems lists are built for
// every window; callers that need the blame list only for some windows
// (the monitor explains alerts only) use ObserveStability and ExplainLast.
func (t *Tracker) Observe(items retail.Basket) Result {
	return t.observe(items, true)
}

// ObserveStability is Observe without building blame and new-item lists —
// the hot path for population-scale scoring. Results carry empty Missing
// and NewItems, and the steady state (no first-seen items in the window)
// performs no allocations. The window's Missing list stays available
// through ExplainLast until the next observation.
func (t *Tracker) ObserveStability(items retail.Basket) Result {
	return t.observe(items, false)
}

// ExplainLast returns exactly the Missing list Observe would have returned
// for the most recently observed window. items must be that window's basket
// (any other basket breaks the contract and may panic). It returns nil when
// that window was undefined, and before the first observation or after
// Reset. The answer is bit-identical to the eager one because fold only
// touches basket items: every missing item still has its pre-fold count,
// and the scan recorded the pre-fold maxC, W and denominator. It explains
// only the latest window, so call it before the next Observe,
// ObserveStability or Reset. The returned slice is freshly allocated and
// owned by the caller.
func (t *Tracker) ExplainLast(items retail.Basket) []Blame {
	if t.lastDen == 0 {
		return nil
	}
	return t.blame(items, t.lastMaxC, t.lastW, t.lastDen)
}

func (t *Tracker) observe(items retail.Basket, explain bool) Result {
	res := Result{Seq: t.seq}
	t.seq++

	skipCount := false
	if !t.started {
		if len(items) == 0 && t.opts.Policy == CountFromFirstSeen {
			skipCount = true
		} else {
			t.started = true
		}
	}

	// Stability against prior state. Exponent of item p is 2c−W; shift by
	// the maximum exponent so the largest term is exactly 1. Iterating in
	// canonical (ascending item) order — never Go's randomized map order —
	// keeps the non-associative float sums bit-identical across runs,
	// restores and worker counts. The repertoire and the basket are both
	// sorted, so membership is a sorted merge, not a lookup per item.
	t.lastDen = 0
	if len(t.items) > 0 {
		maxC := t.maxCount
		var num, den float64
		j := 0
		for i, p := range t.items {
			term := t.term(maxC - t.counts[i])
			den += term
			for j < len(items) && items[j] < p {
				j++ // basket item not in the repertoire: first purchase, S=0
			}
			if j < len(items) && items[j] == p {
				num += term
				j++
			}
		}
		if den > 0 {
			res.Defined = true
			res.Stability = num / den
			if res.Stability > 1 {
				res.Stability = 1 // guard against rounding
			}
			t.lastMaxC, t.lastW, t.lastDen = maxC, t.windows, den
			if explain {
				res.Missing = t.ExplainLast(items)
			}
		}
	}
	if !res.Defined {
		res.Stability = 1 // convention: no history means trivially stable
	}
	if t.prevDefined && res.Defined && res.Stability < t.prevStability {
		res.Drop = t.prevStability - res.Stability
	}
	t.prevStability, t.prevDefined = res.Stability, res.Defined

	if explain {
		res.NewItems = t.newItems(items)
	}
	if !skipCount {
		res.Counted = true
		t.windows++
		t.fold(items)
	} else {
		// Leading empty window under CountFromFirstSeen: nothing recorded.
		res.Counted = false
	}
	return res
}

// newItems lists the basket items absent from the repertoire, in basket
// (ascending) order. nil when every item has been seen before.
func (t *Tracker) newItems(items retail.Basket) []retail.ItemID {
	var out []retail.ItemID
	i := 0
	for _, p := range items {
		for i < len(t.items) && t.items[i] < p {
			i++
		}
		if i == len(t.items) || t.items[i] != p {
			out = append(out, p)
		}
	}
	return out
}

// fold merges the window's basket into the columnar counters: existing
// items are bumped in place, first-seen items are spliced in by a single
// backward merge that preserves the canonical ascending order, and the
// max-count watermark is maintained. The no-new-items steady state touches
// only the count column and allocates nothing.
func (t *Tracker) fold(items retail.Basket) {
	if len(items) == 0 {
		return
	}
	newN := 0
	i := 0
	for _, p := range items {
		for i < len(t.items) && t.items[i] < p {
			i++
		}
		if i < len(t.items) && t.items[i] == p {
			c := t.counts[i] + 1
			t.counts[i] = c
			if c > t.maxCount {
				t.maxCount = c
			}
			i++
		} else {
			newN++
		}
	}
	if newN == 0 {
		return
	}
	if t.maxCount < 1 {
		t.maxCount = 1 // first-seen items enter with c=1
	}
	oldN := len(t.items)
	t.items = slices.Grow(t.items, newN)[:oldN+newN]
	t.counts = slices.Grow(t.counts, newN)[:oldN+newN]
	// Merge from the back so every element moves at most once.
	w := oldN + newN - 1
	i = oldN - 1
	j := len(items) - 1
	for j >= 0 {
		switch {
		case i >= 0 && t.items[i] > items[j]:
			t.items[w] = t.items[i]
			t.counts[w] = t.counts[i]
			i--
		case i >= 0 && t.items[i] == items[j]:
			t.items[w] = t.items[i]
			t.counts[w] = t.counts[i] // already bumped in the first pass
			i--
			j--
		default:
			t.items[w] = items[j]
			t.counts[w] = 1
			j--
		}
		w--
	}
}

// blame builds the sorted missing-item list of a window from its basket and
// its pre-fold scan state (maxC, W, den), with the same repertoire × basket
// merge the stability scan uses. It may run before or after the window's
// fold: the fold only bumps or splices in basket items, which the merge
// skips, so every missing item reads the count the scan saw.
func (t *Tracker) blame(items retail.Basket, maxC, w int32, den float64) []Blame {
	missing := make([]Blame, 0, 8)
	j := 0
	for i, p := range t.items {
		for j < len(items) && items[j] < p {
			j++
		}
		if j < len(items) && items[j] == p {
			j++
			continue
		}
		c := t.counts[i]
		net := int(2*c - w)
		missing = append(missing, Blame{
			Item:            p,
			Net:             net,
			LogSignificance: float64(net) * t.logA,
			Share:           t.term(maxC-c) / den,
		})
	}
	sort.Slice(missing, func(i, j int) bool {
		if missing[i].Net != missing[j].Net {
			return missing[i].Net > missing[j].Net
		}
		return missing[i].Item < missing[j].Item
	})
	if t.opts.MaxBlame > 0 && len(missing) > t.opts.MaxBlame {
		missing = missing[:t.opts.MaxBlame]
	}
	return missing
}

// find returns the column index of item p, or ok=false when p has never
// been bought.
func (t *Tracker) find(p retail.ItemID) (int, bool) {
	i := sort.Search(len(t.items), func(i int) bool { return t.items[i] >= p })
	if i < len(t.items) && t.items[i] == p {
		return i, true
	}
	return i, false
}

// SignificanceOf returns the current (post-fold) significance exponent
// c−l of item p and whether the item has ever been bought. It reflects the
// state after the last Observe — i.e. the S(p, k+1) numerator exponent for
// the next window.
func (t *Tracker) SignificanceOf(p retail.ItemID) (net int, seen bool) {
	i, ok := t.find(p)
	if !ok {
		return 0, false
	}
	return int(2*t.counts[i] - t.windows), true
}

// Reset returns the tracker to its initial state, keeping options and
// retaining the column and memo-table capacity so a worker can score many
// customers with one tracker and no steady-state allocations.
func (t *Tracker) Reset() {
	t.items = t.items[:0]
	t.counts = t.counts[:0]
	t.maxCount = 0
	t.windows = 0
	t.started = false
	t.seq = 0
	t.prevStability = 0
	t.prevDefined = false
	t.lastDen = 0
}
