// Sharded ingestion: a ShardedMonitor partitions customers across N
// single-threaded shard Monitors by customer hash (FNV-1a over the id) and
// guards them with one lock. Customers are scored independently, so the
// only work worth spreading over cores is the window-close barrier, where
// every tracked customer is scored at once; between barriers, ingesting a
// receipt is a basket union. Ingest therefore runs synchronously on the
// caller under the write lock, and the barriers (CloseThrough, EvictIdle)
// fan the shards out through population.Map. Per-customer results are
// bit-identical to the single-threaded Monitor at every shard count.
//
// Ingest-time alerts are buffered and delivered at barriers — Flush,
// CloseThrough, EvictIdle, Close — merged in a canonical order (grid index,
// then customer id). Because the alert set is shard-count independent and
// the merge order is total, the delivered batches are byte-identical for
// any shard count, including the single-threaded Monitor's sorted output;
// the equivalence is property-tested.
//
// Errors are buffered the same way: the first ingest error since the last
// barrier is reported by that barrier. Ingest calls are serialized by the
// lock, so for a sequential feed that is deterministically the first bad
// receipt, regardless of shard count.
package stream

import (
	"errors"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/gautrais/stability/internal/population"
	"github.com/gautrais/stability/internal/retail"
)

// ErrClosed is returned by operations on a ShardedMonitor after Close.
var ErrClosed = errors.New("stream: sharded monitor is closed")

// ShardedMonitor is the parallel ingestion engine: hash-partitioned shard
// Monitors behind one lock, with barriers fanned out across the shards.
// Every method is safe for concurrent use; per-customer receipt order is
// preserved for receipts whose Ingest calls are ordered (a single producer,
// or external synchronization). Alerts are delivered at
// Flush/CloseThrough/EvictIdle/Close barriers in (grid index, customer id)
// order. Read-only accessors keep working after Close.
type ShardedMonitor struct {
	cfg Config
	// mu guards everything below. Ingest and the barriers hold it
	// exclusively; the read-only accessors share it.
	mu     sync.RWMutex
	shards []*Monitor
	// alerts buffers ingest-time alerts until the next barrier; err is the
	// first ingest error since the last barrier.
	alerts []Alert
	err    error
	closed bool
}

// NewSharded validates cfg and returns an empty sharded monitor. shards <= 0
// means GOMAXPROCS. The shard count sets the barrier parallelism; like a
// worker count, it affects throughput only, never results or snapshots.
func NewSharded(cfg Config, shards int) (*ShardedMonitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	s := &ShardedMonitor{cfg: cfg, shards: make([]*Monitor, shards)}
	for i := range s.shards {
		s.shards[i] = &Monitor{cfg: cfg, states: make(map[retail.CustomerID]*custState)}
	}
	return s, nil
}

// FNV-1a 64-bit over the customer id's 8 little-endian bytes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func shardIndex(id retail.CustomerID, n int) int {
	h := uint64(fnvOffset64)
	x := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return int(h % uint64(n))
}

// shard returns the Monitor owning the customer.
func (s *ShardedMonitor) shard(id retail.CustomerID) *Monitor {
	return s.shards[shardIndex(id, len(s.shards))]
}

// Shards returns the shard count.
func (s *ShardedMonitor) Shards() int { return len(s.shards) }

// Ingest feeds one receipt to its customer's shard. Receipts must arrive in
// non-decreasing window order per customer, exactly as for Monitor.Ingest;
// a violation surfaces as an ErrStale-wrapped error at the next barrier.
// The basket is not retained.
func (s *ShardedMonitor) Ingest(id retail.CustomerID, t time.Time, items retail.Basket) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	alerts, err := s.shard(id).Ingest(id, t, items)
	s.alerts = append(s.alerts, alerts...)
	if err != nil && s.err == nil {
		s.err = err
	}
	return nil
}

// barrier runs fn on every shard index in parallel (nil fn runs nothing) and
// hands back the buffered ingest alerts plus fn's, merged into (grid index,
// customer id) order, and the buffered ingest error; both buffers reset.
// The caller holds mu exclusively.
func (s *ShardedMonitor) barrier(fn func(shard int) []Alert) ([]Alert, error) {
	merged := s.alerts
	if fn != nil {
		outs, _ := population.Map(len(s.shards), population.Options{Workers: len(s.shards)},
			func(i int) ([]Alert, error) { return fn(i), nil })
		for _, a := range outs {
			merged = append(merged, a...)
		}
	}
	sortAlerts(merged)
	err := s.err
	s.alerts, s.err = nil, nil
	return merged, err
}

// sortAlerts orders alerts by (grid index, customer id) — a total order,
// since a customer scores each window at most once, so the merged output is
// identical for every shard count.
func sortAlerts(alerts []Alert) {
	sort.Slice(alerts, func(i, j int) bool {
		if alerts[i].GridIndex != alerts[j].GridIndex {
			return alerts[i].GridIndex < alerts[j].GridIndex
		}
		return alerts[i].Customer < alerts[j].Customer
	})
}

// Flush is the barrier without window closing: it returns the alerts raised
// by receipts ingested since the last barrier, merged deterministically,
// plus the first ingest error since the last barrier.
func (s *ShardedMonitor) Flush() ([]Alert, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.barrier(nil)
}

// CloseThrough force-closes every tracked customer's windows through grid
// index k (scoring silent windows as empty, exactly as
// Monitor.CloseThrough), and returns all pending plus newly raised alerts in
// (grid index, customer id) order.
func (s *ShardedMonitor) CloseThrough(k int) ([]Alert, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	return s.barrier(func(i int) []Alert { return s.shards[i].CloseThrough(k) })
}

// EvictIdle applies Monitor.EvictIdle(k) on every shard, returning the
// merged alerts in canonical order plus the number of customers evicted
// across shards. A CloseThrough barrier already evicts inline; this is the
// explicit sweep the ingestion TTL job drives.
func (s *ShardedMonitor) EvictIdle(k int) ([]Alert, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	counts := make([]int, len(s.shards))
	alerts, err := s.barrier(func(i int) []Alert {
		a, n := s.shards[i].EvictIdle(k)
		counts[i] = n
		return a
	})
	n := 0
	for _, c := range counts {
		n += c
	}
	return alerts, n, err
}

// Evicted returns the cumulative number of customers dropped at the
// retention horizon across all shards, like Monitor.Evicted.
func (s *ShardedMonitor) Evicted() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total uint64
	for _, m := range s.shards {
		total += m.Evicted()
	}
	return total
}

// Close returns any remaining buffered alerts and pending error.
// Ingest/Flush/CloseThrough/EvictIdle after Close return ErrClosed, while
// the read-only accessors (Stability, Customers, WriteSnapshot, …) keep
// working.
func (s *ShardedMonitor) Close() ([]Alert, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.closed = true
	return s.barrier(nil)
}

// isClosed reports whether Close has run.
func (s *ShardedMonitor) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Stability returns the customer's last scored stability, like
// Monitor.Stability. It reflects every receipt whose Ingest returned before
// the call.
func (s *ShardedMonitor) Stability(id retail.CustomerID) (value float64, gridIndex int, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.shard(id).Stability(id)
}

// Stabilities answers a batch of stability queries in request order under
// one read-lock acquisition, filling dst (truncated and reused when
// capacity suffices) with one row per id — row i is exactly what
// Stability(ids[i]) would return, and the differential serve tests pin that
// equivalence byte-for-byte at shards {1,2,4,8}. Per customer the work is
// one hash and one map lookup, with no allocation.
func (s *ShardedMonitor) Stabilities(ids []retail.CustomerID, dst []CustomerStability) []CustomerStability {
	if cap(dst) >= len(ids) {
		dst = dst[:len(ids)]
	} else {
		dst = make([]CustomerStability, len(ids))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, id := range ids {
		v, k, ok := s.shard(id).Stability(id)
		dst[i] = CustomerStability{Customer: id, Value: v, GridIndex: k, OK: ok}
	}
	return dst
}

// Customers returns the number of customers tracked across all shards.
func (s *ShardedMonitor) Customers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, m := range s.shards {
		total += m.Customers()
	}
	return total
}

// WriteSnapshot persists the monitor in the same SMN1 format as
// Monitor.WriteSnapshot: shard count is an operational knob, not persisted
// state, so the bytes are identical to the single-threaded monitor's for the
// same feed and a snapshot written with S shards restores with any S'. The
// states stream out under the read lock (Ingest and barriers wait) through
// a k-way merge of the per-shard sorted id lists — states flow straight
// from each shard map to the writer, with no merged intermediate map, so
// the memory overhead is one id slice per shard instead of a copy of the
// whole population's state index. Buffered alerts are not part of the
// snapshot — Flush before snapshotting if they must not be lost across a
// restart.
func (s *ShardedMonitor) WriteSnapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	states := make([]map[retail.CustomerID]*custState, len(s.shards))
	for i, m := range s.shards {
		states[i] = m.states
	}
	return writeShardedStates(w, s.cfg.Grid, states)
}

// Watermark returns the lowest open (not yet scored) window index across
// all tracked customers — after a uniform CloseThrough(k) barrier this is
// k+1, the index replay should resume feeding from. ok is false when no
// customers are tracked.
func (s *ShardedMonitor) Watermark() (k int, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, m := range s.shards {
		if mk, mok := m.Watermark(); mok && (!ok || mk < k) {
			k, ok = mk, true
		}
	}
	return k, ok
}

// ReadShardedMonitorSnapshot restores a sharded monitor from any SMN1
// snapshot — written by a Monitor or by a ShardedMonitor with any shard
// count. cfg follows the ReadMonitorSnapshot contract; shards <= 0 means
// GOMAXPROCS.
func ReadShardedMonitorSnapshot(r io.Reader, cfg Config, shards int) (*ShardedMonitor, error) {
	states, err := readMonitorStates(r, cfg)
	if err != nil {
		return nil, err
	}
	s, err := NewSharded(cfg, shards)
	if err != nil {
		return nil, err
	}
	//detlint:ignore R1 addRestored is order-insensitive and shard assignment depends only on the id hash
	for id, st := range states {
		s.shard(id).addRestored(id, st)
	}
	return s, nil
}
