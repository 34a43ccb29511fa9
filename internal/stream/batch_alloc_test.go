//go:build !race

// Batch-query allocation guards: the steady-state batch stability path
// must be allocation-free per customer. Excluded under -race because the
// race runtime adds bookkeeping allocations.

package stream

import "testing"

// TestStabilitiesAllocFreePerCustomer pins the batch query cost model:
// with a recycled dst, the sharded monitor reads the shards directly under
// its read lock, so the open path performs a constant number of allocations
// that does not grow with the number of customers queried, and the closed
// path and the sequential monitor perform none.
func TestStabilitiesAllocFreePerCustomer(t *testing.T) {
	feed := randomFeed(t, 5, 64, 1200)
	ids := queryIDs(feed)
	if len(ids) < 96 {
		t.Fatalf("feed yielded only %d query ids", len(ids))
	}
	_, s := replaySharded(t, testConfig(t, 0.7), 4, feed, 6)
	dst := make([]CustomerStability, 0, len(ids))

	small := testing.AllocsPerRun(100, func() { dst = s.Stabilities(ids[:16], dst) })
	large := testing.AllocsPerRun(100, func() { dst = s.Stabilities(ids, dst) })
	if large > small {
		t.Errorf("open path allocates per customer: %.1f allocs at %d ids vs %.1f at 16",
			large, len(ids), small)
	}

	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { dst = s.Stabilities(ids, dst) }); got != 0 {
		t.Errorf("closed sharded batch query: %.1f allocs/op, want 0", got)
	}

	_, m := replaySingle(t, testConfig(t, 0.7), feed, 6)
	if got := testing.AllocsPerRun(100, func() { dst = m.Stabilities(ids, dst) }); got != 0 {
		t.Errorf("sequential batch query: %.1f allocs/op, want 0", got)
	}
}
