// Package stream provides online attrition monitoring: receipts are
// ingested one at a time (the shape of a live point-of-sale feed), windows
// roll over automatically on the configured grid, and an Alert is emitted
// whenever a customer's stability falls to or below the loyalty threshold
// β — with the blamed products attached, so each alert is immediately
// actionable.
//
// The monitor produces byte-identical stability values to the batch
// pipeline (window.Windowize + core.Model.Analyze); the equivalence is
// property-tested. A window is scored when it closes, i.e. when a later
// receipt (or an explicit CloseThrough) proves no more purchases can fall
// inside it. Windows with no purchases at all are scored as empty — absence
// is the signal attrition lives in.
//
// Monitor is the single-threaded engine; ShardedMonitor partitions the
// same engine into customer-hash shards behind one lock and scores
// window-close barriers across the shards in parallel, with identical
// results (see sharded.go).
package stream

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/window"
)

// Config parameterizes a Monitor.
type Config struct {
	// Grid is the window grid receipts are bucketed on.
	Grid window.Grid
	// Model configures the stability model (α, policy, blame cap).
	Model core.Options
	// Beta is the loyalty threshold: a scored window with
	// stability ≤ Beta raises an alert (the paper's detection rule:
	// stability > β ⇒ loyal).
	Beta float64
	// TopJ caps the blamed products attached to each alert (0 = all).
	TopJ int
	// AlertOnUndefined controls whether windows with no prior history
	// (stability = 1 by convention, Defined = false) can alert. Default
	// false: a brand-new customer is not defecting.
	AlertOnUndefined bool
	// WarmupWindows suppresses alerts until the customer has at least this
	// many counted windows of history. Early windows score against a thin
	// significance profile and alert noisily (cold start); 3–4 windows of
	// warm-up removes most of that noise. 0 disables warm-up.
	WarmupWindows int
	// RetentionWindows bounds memory over unbounded time: a customer last
	// active in window s is scored through window s+RetentionWindows — the
	// silent windows that drive the stability decay toward an alert — and
	// then dropped. Inside that horizon alerts and stabilities are
	// bit-identical to a monitor retaining everything (property-tested);
	// a dropped customer who returns starts a fresh relationship, exactly
	// as a new customer id would. 0 retains every customer forever.
	RetentionWindows int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.Beta < 0 || c.Beta >= 1 {
		return fmt.Errorf("stream: beta must be in [0,1), got %v", c.Beta)
	}
	if c.TopJ < 0 {
		return fmt.Errorf("stream: TopJ must be >= 0, got %d", c.TopJ)
	}
	if c.WarmupWindows < 0 {
		return fmt.Errorf("stream: WarmupWindows must be >= 0, got %d", c.WarmupWindows)
	}
	if c.RetentionWindows < 0 {
		return fmt.Errorf("stream: RetentionWindows must be >= 0, got %d", c.RetentionWindows)
	}
	if c.Grid.Span().Months < 1 {
		return errors.New("stream: zero-value grid")
	}
	return nil
}

// Alert is one detection event.
type Alert struct {
	Customer  retail.CustomerID
	GridIndex int
	// Start/End bound the scored window.
	Start, End time.Time
	Stability  float64
	// Drop is the decrease vs. the customer's previous scored window.
	Drop float64
	// Blame lists the most significant missing products.
	Blame []core.Blame
}

// Scored is one closed window's result (alerting or not), for callers that
// want the full stream rather than alerts only.
type Scored struct {
	Customer  retail.CustomerID
	GridIndex int
	Result    core.Result
}

// ErrStale is returned when a receipt arrives for a window that has
// already been closed for its customer.
var ErrStale = errors.New("stream: receipt for an already-closed window")

type custState struct {
	tracker *core.Tracker
	openK   int // grid index of the open (accumulating) window
	// pending accumulates the open window's item set; scratch is the spare
	// buffer UnionInto merges into, swapped with pending on every receipt
	// so the steady state reuses two buffers instead of allocating a merged
	// basket per receipt.
	pending retail.Basket
	scratch retail.Basket
	// lastStability/lastDefined feed Alert.Drop; scored reports whether
	// any window has been scored yet.
	lastStability float64
	lastDefined   bool
	lastScoredK   int
	scored        bool
	// lastActiveK is the window of the customer's newest receipt; the
	// retention horizon measures silence from here.
	lastActiveK int
}

// Monitor ingests receipts and emits alerts. Not safe for concurrent use;
// ShardedMonitor wraps it with a lock and hash-partitioned parallel
// barriers for multi-core feeds.
type Monitor struct {
	cfg    Config
	states map[retail.CustomerID]*custState
	// ids is the sorted customer index CloseThrough iterates; newIDs
	// buffers customers first seen since the last merge. Folding the
	// (small) new batch in with one sort + one linear merge keeps barriers
	// from re-sorting the whole customer set: a steady-state barrier over n
	// customers is O(n), not O(n log n).
	ids    []retail.CustomerID
	newIDs []retail.CustomerID
	// scoredHook, when set, receives every closed window (used by tests
	// and by callers that want full traces).
	scoredHook func(Scored)
	// evicted counts customers dropped at the retention horizon.
	evicted uint64
}

// New validates cfg and returns an empty monitor.
func New(cfg Config) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Monitor{cfg: cfg, states: make(map[retail.CustomerID]*custState)}, nil
}

// OnScored registers a hook receiving every closed window in scoring
// order. Pass nil to remove. Scored.Result carries the full Missing and
// NewItems lists, so while a hook is set every window is scored with the
// eager Tracker.Observe; without one, blame is built for alerts only.
func (m *Monitor) OnScored(fn func(Scored)) { m.scoredHook = fn }

// Customers returns the number of customers currently tracked.
func (m *Monitor) Customers() int { return len(m.states) }

// Ingest feeds one receipt. Receipts must arrive in non-decreasing window
// order per customer (receipts within the same window may arrive in any
// order). Closing earlier windows may emit alerts, which are returned.
func (m *Monitor) Ingest(id retail.CustomerID, t time.Time, items retail.Basket) ([]Alert, error) {
	if !items.IsNormalized() {
		items = retail.NewBasket(items)
	}
	k := m.cfg.Grid.Index(t)
	st, ok := m.states[id]
	if !ok {
		tr, err := core.NewTracker(m.cfg.Model)
		if err != nil {
			return nil, err
		}
		st = &custState{tracker: tr, openK: k, lastScoredK: k - 1, lastActiveK: k}
		m.states[id] = st
		m.newIDs = append(m.newIDs, id)
	}
	if k < st.openK {
		return nil, fmt.Errorf("%w: customer %d window %d (open is %d)", ErrStale, id, k, st.openK)
	}
	var alerts []Alert
	if limit, bounded := m.horizonLimit(st); bounded && k > limit {
		// The customer returns after their retention horizon: score the old
		// relationship through the horizon (exactly what eviction would have
		// done) and start a fresh one — a returning churned customer is a
		// new relationship, bit-identical to a barrier having evicted them.
		alerts = m.closeThrough(id, st, k-1) // clamps at limit
		tr, err := core.NewTracker(m.cfg.Model)
		if err != nil {
			return nil, err
		}
		m.evicted++
		// Reuse the pointer: the id stays valid in the sorted index.
		*st = custState{tracker: tr, openK: k, lastScoredK: k - 1, lastActiveK: k}
	} else if k > st.openK {
		alerts = m.closeThrough(id, st, k-1)
	}
	if k > st.lastActiveK {
		st.lastActiveK = k
	}
	st.scratch = retail.UnionInto(st.scratch, st.pending, items)
	st.pending, st.scratch = st.scratch, st.pending
	return alerts, nil
}

// horizonLimit returns the last window index the customer may still score:
// with a retention horizon of H windows and last activity in window s, the
// customer scores windows through s+H and nothing after. bounded is false
// when RetentionWindows is 0 (retain forever).
func (m *Monitor) horizonLimit(st *custState) (limit int, bounded bool) {
	if m.cfg.RetentionWindows <= 0 {
		return 0, false
	}
	return st.lastActiveK + m.cfg.RetentionWindows, true
}

// closeThrough scores the open window and any empty windows up to and
// including k, leaving a fresh open window at k+1. With a retention horizon
// configured, k is clamped to the customer's horizon: windows past it are
// never scored, no matter how late the closing barrier arrives, so the
// scored-window set is independent of barrier timing.
func (m *Monitor) closeThrough(id retail.CustomerID, st *custState, k int) []Alert {
	if limit, bounded := m.horizonLimit(st); bounded && k > limit {
		k = limit
	}
	var alerts []Alert
	for st.openK <= k {
		// Score first, explain on alert: the blame list is built only for
		// the windows toAlert accepts. The OnScored hook exposes the full
		// Result (Missing, NewItems), so it keeps the eager Observe.
		var res core.Result
		if m.scoredHook != nil {
			res = st.tracker.Observe(st.pending)
			m.scoredHook(Scored{Customer: id, GridIndex: st.openK, Result: res})
		} else {
			res = st.tracker.ObserveStability(st.pending)
		}
		if a, ok := m.toAlert(id, st, res); ok {
			alerts = append(alerts, a)
		}
		st.pending = st.pending[:0] // the tracker retains nothing; keep the buffer
		st.lastStability, st.lastDefined = res.Stability, res.Defined
		st.lastScoredK = st.openK
		st.scored = true
		st.openK++
	}
	return alerts
}

// toAlert applies the alert rule (definedness, warm-up, β) to the window
// just scored from st.pending, and explains the accepted ones.
func (m *Monitor) toAlert(id retail.CustomerID, st *custState, res core.Result) (Alert, bool) {
	if !res.Defined && !m.cfg.AlertOnUndefined {
		return Alert{}, false
	}
	// tracker.Windows() already includes the just-scored window; warm-up
	// requires that many windows *before* the scored one.
	if st.tracker.Windows()-1 < m.cfg.WarmupWindows {
		return Alert{}, false
	}
	if res.Stability > m.cfg.Beta {
		return Alert{}, false
	}
	start, end := m.cfg.Grid.Bounds(st.openK)
	blame := res.Missing
	if m.scoredHook == nil {
		blame = st.tracker.ExplainLast(st.pending)
	}
	if m.cfg.TopJ > 0 && len(blame) > m.cfg.TopJ {
		blame = blame[:m.cfg.TopJ]
	}
	drop := 0.0
	if st.lastDefined && res.Defined && res.Stability < st.lastStability {
		drop = st.lastStability - res.Stability
	}
	return Alert{
		Customer:  id,
		GridIndex: st.openK,
		Start:     start,
		End:       end,
		Stability: res.Stability,
		Drop:      drop,
		Blame:     blame,
	}, true
}

// mergeIDs folds the customers first seen since the last merge into the
// sorted index: sort the new batch, then one backward in-place merge. New
// customers arrive only on their first receipt, so the batch is small (and
// usually empty) at a steady-state barrier.
func (m *Monitor) mergeIDs() {
	if len(m.newIDs) == 0 {
		return
	}
	sort.Slice(m.newIDs, func(i, j int) bool { return m.newIDs[i] < m.newIDs[j] })
	ni := len(m.ids)
	m.ids = append(m.ids, m.newIDs...)
	// Backward merge: ids[0:ni] and newIDs are each sorted and disjoint
	// (a customer enters newIDs only when absent from states).
	for w, nj := len(m.ids)-1, len(m.newIDs)-1; nj >= 0; w-- {
		if ni > 0 && m.ids[ni-1] > m.newIDs[nj] {
			m.ids[w] = m.ids[ni-1]
			ni--
		} else {
			m.ids[w] = m.newIDs[nj]
			nj--
		}
	}
	m.newIDs = m.newIDs[:0]
}

// addRestored registers a snapshot-restored customer state. The index is
// rebuilt lazily at the next barrier, so restore order does not matter.
func (m *Monitor) addRestored(id retail.CustomerID, st *custState) {
	m.states[id] = st
	m.newIDs = append(m.newIDs, id)
}

// CloseThrough force-closes every tracked customer's windows through grid
// index k (inclusive), scoring them (empty where no purchases arrived) and
// returning any alerts, ordered by customer id. Use at end-of-feed, or
// periodically with the feed's watermark so silent customers — the
// defecting ones — still get scored. With a retention horizon configured,
// customers whose horizon ends at or before k are scored through it and
// evicted in the same pass.
func (m *Monitor) CloseThrough(k int) []Alert {
	m.mergeIDs()
	var alerts []Alert
	evicted := false
	for _, id := range m.ids {
		st := m.states[id]
		if limit, bounded := m.horizonLimit(st); bounded && limit <= k {
			if st.openK <= limit {
				alerts = append(alerts, m.closeThrough(id, st, limit)...)
			}
			delete(m.states, id)
			m.evicted++
			evicted = true
			continue
		}
		if st.openK <= k {
			alerts = append(alerts, m.closeThrough(id, st, k)...)
		}
	}
	if evicted {
		m.compactIDs()
	}
	return alerts
}

// EvictIdle drops every customer whose retention horizon ends at or before
// grid index k: their remaining windows inside the horizon are scored
// (empty, possibly alerting) and the state is freed. CloseThrough applies
// the same rule inline, so under a steadily advancing feed a sweep finds
// nothing; EvictIdle exists for explicit sweeps — the ingestion TTL job,
// and restores of a snapshot taken under a longer (or no) horizon. It
// returns the alerts raised and the number of customers evicted, and is a
// no-op when RetentionWindows is 0.
func (m *Monitor) EvictIdle(k int) ([]Alert, int) {
	if m.cfg.RetentionWindows <= 0 {
		return nil, 0
	}
	m.mergeIDs()
	var alerts []Alert
	n := 0
	for _, id := range m.ids {
		st := m.states[id]
		if limit := st.lastActiveK + m.cfg.RetentionWindows; limit <= k {
			if st.openK <= limit {
				alerts = append(alerts, m.closeThrough(id, st, limit)...)
			}
			delete(m.states, id)
			m.evicted++
			n++
		}
	}
	if n > 0 {
		m.compactIDs()
	}
	return alerts, n
}

// Evicted returns the cumulative number of customers dropped at the
// retention horizon (including horizon-crossing returns, which end the old
// relationship). Restored monitors start the count at zero.
func (m *Monitor) Evicted() uint64 { return m.evicted }

// compactIDs filters evicted customers out of the sorted index in place.
func (m *Monitor) compactIDs() {
	w := 0
	for _, id := range m.ids {
		if _, ok := m.states[id]; ok {
			m.ids[w] = id
			w++
		}
	}
	m.ids = m.ids[:w]
}

// Watermark returns the lowest open (not yet scored) window index across
// all tracked customers — after CloseThrough(k) it is k+1, the index
// replay should resume feeding from. ok is false when no customers are
// tracked.
func (m *Monitor) Watermark() (k int, ok bool) {
	//detlint:ignore R1 folds a minimum over values; min is commutative, so visit order cannot leak
	for _, st := range m.states {
		if !ok || st.openK < k {
			k, ok = st.openK, true
		}
	}
	return k, ok
}

// Stability returns the last scored stability of a customer, with ok=false
// when the customer is unknown or no window has been scored yet.
func (m *Monitor) Stability(id retail.CustomerID) (value float64, gridIndex int, ok bool) {
	st, found := m.states[id]
	if !found || !st.scored {
		return 0, 0, false
	}
	return st.lastStability, st.lastScoredK, true
}

// CustomerStability is one row of a batch stability query: the answer
// Stability would give for Customer, with OK false when the customer is
// unknown or not yet scored (Value and GridIndex are then zero).
type CustomerStability struct {
	Customer  retail.CustomerID
	Value     float64
	GridIndex int
	OK        bool
}

// Stabilities answers a batch of stability queries in request order,
// appending one row per id into dst (which is truncated and reused when
// its capacity suffices — a caller-recycled dst makes the steady state
// allocation-free). Row i is exactly what Stability(ids[i]) would return.
func (m *Monitor) Stabilities(ids []retail.CustomerID, dst []CustomerStability) []CustomerStability {
	if cap(dst) >= len(ids) {
		dst = dst[:len(ids)]
	} else {
		dst = make([]CustomerStability, len(ids))
	}
	for i, id := range ids {
		v, k, ok := m.Stability(id)
		dst[i] = CustomerStability{Customer: id, Value: v, GridIndex: k, OK: ok}
	}
	return dst
}
