//go:build !race

// Monitor allocation guard: a steady-state month (settled customers, no
// alerts) must not allocate per customer. Excluded under -race because the
// race runtime adds bookkeeping allocations.

package stream

import (
	"testing"

	"github.com/gautrais/stability/internal/retail"
)

// TestMonitorSteadyStateAllocs pins the cost model of score first, explain
// on alert: once customers are settled (no first-seen items, pending
// buffers grown), a month of two receipts per customer closed by one
// CloseThrough scores every window with ObserveStability and raises no
// alert, so nothing is allocated per customer or per window.
func TestMonitorSteadyStateAllocs(t *testing.T) {
	month := func(customers int) float64 {
		cfg := testConfig(t, 0.5)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a := retail.NewBasket([]retail.ItemID{1, 2, 3})
		b := retail.NewBasket([]retail.ItemID{2, 3, 4})
		k := 0
		run := func() {
			for id := 1; id <= customers; id++ {
				if _, err := m.Ingest(retail.CustomerID(id), at(cfg.Grid, k, 1), a); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Ingest(retail.CustomerID(id), at(cfg.Grid, k, 9), b); err != nil {
					t.Fatal(err)
				}
			}
			if alerts := m.CloseThrough(k); len(alerts) != 0 {
				t.Fatalf("steady month %d raised %d alerts", k, len(alerts))
			}
			k++
		}
		for i := 0; i < 4; i++ {
			run() // settle: repertoires, pending buffers, the sorted id index
		}
		return testing.AllocsPerRun(20, run)
	}
	small, large := month(200), month(400)
	t.Logf("steady month: %.1f allocs at 200 customers, %.1f at 400", small, large)
	if large != small {
		t.Errorf("steady month allocates per customer: %.1f allocs at 400 customers vs %.1f at 200", large, small)
	}
	if large > 1 {
		t.Errorf("steady month: %.1f allocs, want <= 1", large)
	}
}
