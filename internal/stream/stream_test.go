package stream

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/window"
)

func testGrid(t testing.TB) window.Grid {
	t.Helper()
	g, err := window.NewGrid(time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC), window.Span{Months: 2})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testConfig(t testing.TB, beta float64) Config {
	return Config{Grid: testGrid(t), Model: core.Options{Alpha: 2}, Beta: beta, TopJ: 3}
}

func at(g window.Grid, k int, day int) time.Time {
	start, _ := g.Bounds(k)
	return start.AddDate(0, 0, day)
}

func TestConfigValidation(t *testing.T) {
	good := testConfig(t, 0.5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Beta = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("beta=1 accepted")
	}
	bad = good
	bad.Beta = -0.1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative beta accepted")
	}
	bad = good
	bad.TopJ = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative TopJ accepted")
	}
	bad = good
	bad.Model.Alpha = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("alpha=1 accepted")
	}
	if err := (Config{Model: core.Options{Alpha: 2}}).Validate(); err == nil {
		t.Fatal("zero grid accepted")
	}
	if _, err := New(bad); err == nil {
		t.Fatal("New accepted bad config")
	}
}

func TestMonitorAlertsOnErosion(t *testing.T) {
	g := testGrid(t)
	m, err := New(testConfig(t, 0.7))
	if err != nil {
		t.Fatal(err)
	}
	full := retail.NewBasket([]retail.ItemID{1, 2, 3, 4})
	// Four healthy windows.
	var alerts []Alert
	for k := 0; k < 4; k++ {
		a, err := m.Ingest(7, at(g, k, 3), full)
		if err != nil {
			t.Fatal(err)
		}
		alerts = append(alerts, a...)
	}
	if len(alerts) != 0 {
		t.Fatalf("healthy customer alerted: %+v", alerts)
	}
	// Window 4: only item 1 — closing it requires a receipt in window 5.
	if _, err := m.Ingest(7, at(g, 4, 3), retail.NewBasket([]retail.ItemID{1})); err != nil {
		t.Fatal(err)
	}
	a, err := m.Ingest(7, at(g, 5, 3), retail.NewBasket([]retail.ItemID{1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 {
		t.Fatalf("expected 1 alert, got %d", len(a))
	}
	alert := a[0]
	if alert.Customer != 7 || alert.GridIndex != 4 {
		t.Fatalf("alert = %+v", alert)
	}
	if alert.Stability > 0.7 {
		t.Fatalf("alert stability %v above beta", alert.Stability)
	}
	if len(alert.Blame) == 0 {
		t.Fatal("alert carries no blame")
	}
	blamed := map[retail.ItemID]bool{}
	for _, b := range alert.Blame {
		blamed[b.Item] = true
	}
	for _, want := range []retail.ItemID{2, 3, 4} {
		if !blamed[want] {
			t.Errorf("missing item %d not blamed: %+v", want, alert.Blame)
		}
	}
	if alert.Drop <= 0 {
		t.Fatalf("alert drop = %v", alert.Drop)
	}
	if alert.End.Before(alert.Start) {
		t.Fatal("alert window bounds inverted")
	}
}

func TestMonitorSkippedWindowsScoreEmpty(t *testing.T) {
	g := testGrid(t)
	m, _ := New(testConfig(t, 0.7))
	full := retail.NewBasket([]retail.ItemID{1, 2})
	for k := 0; k < 3; k++ {
		if _, err := m.Ingest(9, at(g, k, 2), full); err != nil {
			t.Fatal(err)
		}
	}
	// Jump straight to window 6: windows 2..5 close, 3..5 empty.
	alerts, err := m.Ingest(9, at(g, 6, 2), full)
	if err != nil {
		t.Fatal(err)
	}
	// Empty windows have stability 0 → alerts for windows 3, 4, 5.
	if len(alerts) != 3 {
		t.Fatalf("alerts = %d, want 3 (one per empty window)", len(alerts))
	}
	for i, a := range alerts {
		if a.GridIndex != 3+i {
			t.Fatalf("alert %d at window %d, want %d", i, a.GridIndex, 3+i)
		}
		if a.Stability != 0 {
			t.Fatalf("empty-window stability = %v", a.Stability)
		}
	}
}

func TestMonitorStaleReceipt(t *testing.T) {
	g := testGrid(t)
	m, _ := New(testConfig(t, 0.5))
	b := retail.NewBasket([]retail.ItemID{1})
	if _, err := m.Ingest(1, at(g, 3, 0), b); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(1, at(g, 5, 0), b); err != nil {
		t.Fatal(err)
	}
	_, err := m.Ingest(1, at(g, 4, 0), b)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("stale receipt error = %v", err)
	}
	// Same-window receipts are fine in any order.
	if _, err := m.Ingest(1, at(g, 5, 1), b); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorCloseThrough(t *testing.T) {
	g := testGrid(t)
	m, _ := New(testConfig(t, 0.7))
	full := retail.NewBasket([]retail.ItemID{1, 2})
	for k := 0; k < 3; k++ {
		if _, err := m.Ingest(4, at(g, k, 1), full); err != nil {
			t.Fatal(err)
		}
	}
	// Customer goes silent; watermark advances to window 5.
	alerts := m.CloseThrough(5)
	// Windows 2 (full, pending) scores fine; 3,4,5 empty → 3 alerts.
	if len(alerts) != 3 {
		t.Fatalf("alerts = %d, want 3", len(alerts))
	}
	v, k, ok := m.Stability(4)
	if !ok || k != 5 || v != 0 {
		t.Fatalf("Stability = %v,%d,%v", v, k, ok)
	}
	// Closing again through the same watermark is a no-op.
	if extra := m.CloseThrough(5); len(extra) != 0 {
		t.Fatalf("re-close produced %d alerts", len(extra))
	}
}

func TestMonitorStabilityAccessor(t *testing.T) {
	g := testGrid(t)
	m, _ := New(testConfig(t, 0.5))
	if _, _, ok := m.Stability(99); ok {
		t.Fatal("unknown customer has stability")
	}
	b := retail.NewBasket([]retail.ItemID{1})
	if _, err := m.Ingest(2, at(g, 0, 1), b); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := m.Stability(2); ok {
		t.Fatal("open-window customer reported scored stability")
	}
	if _, err := m.Ingest(2, at(g, 1, 1), b); err != nil {
		t.Fatal(err)
	}
	v, k, ok := m.Stability(2)
	if !ok || k != 0 || v != 1 {
		t.Fatalf("Stability = %v,%d,%v; want 1,0,true", v, k, ok)
	}
	if m.Customers() != 1 {
		t.Fatalf("Customers = %d", m.Customers())
	}
}

func TestMonitorUndefinedWindowsDoNotAlertByDefault(t *testing.T) {
	g := testGrid(t)
	cfg := testConfig(t, 0.99) // aggressive beta
	m, _ := New(cfg)
	b := retail.NewBasket([]retail.ItemID{1})
	if _, err := m.Ingest(3, at(g, 0, 1), b); err != nil {
		t.Fatal(err)
	}
	// First window closes with no prior history: stability 1, undefined.
	alerts, err := m.Ingest(3, at(g, 1, 1), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("undefined window alerted: %+v", alerts)
	}

	// With AlertOnUndefined and beta ~1... stability 1 > beta still no
	// alert; use an empty leading window instead.
	cfg.AlertOnUndefined = true
	m2, _ := New(cfg)
	if _, err := m2.Ingest(3, at(g, 1, 1), b); err != nil {
		t.Fatal(err)
	}
	// Leading window under first-seen policy: skip-counted but still
	// scored as undefined stability 1 — never ≤ beta < 1, so no alert
	// either way. This documents that brand-new customers cannot alert.
	alerts = m2.CloseThrough(1)
	if len(alerts) != 0 {
		t.Fatalf("new customer alerted: %+v", alerts)
	}
}

// TestMonitorMatchesBatchPipeline is the equivalence property: streaming
// ingestion must produce exactly the stability series of the batch
// pipeline on the same receipts.
func TestMonitorMatchesBatchPipeline(t *testing.T) {
	g := testGrid(t)
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random history: receipts over ~10 windows with gaps.
		h := retail.History{Customer: 77}
		day := 0
		for i := 0; i < 30; i++ {
			day += r.Intn(40)
			items := make([]retail.ItemID, r.Intn(5))
			for j := range items {
				items[j] = retail.ItemID(r.Intn(8) + 1)
			}
			h.Receipts = append(h.Receipts, retail.Receipt{
				Time:  g.Origin().AddDate(0, 0, day).Add(9 * time.Hour),
				Items: retail.NewBasket(items),
			})
		}
		lastK := g.Index(h.Receipts[len(h.Receipts)-1].Time)

		// Batch.
		model, err := core.New(core.Options{Alpha: 2})
		if err != nil {
			return false
		}
		wd, err := window.Windowize(h, g, lastK)
		if err != nil {
			return false
		}
		batch, err := model.Analyze(wd)
		if err != nil {
			return false
		}

		// Stream.
		m, err := New(Config{Grid: g, Model: core.Options{Alpha: 2}, Beta: 0.5})
		if err != nil {
			return false
		}
		var scored []Scored
		m.OnScored(func(s Scored) { scored = append(scored, s) })
		for _, rec := range h.Receipts {
			if _, err := m.Ingest(h.Customer, rec.Time, rec.Items); err != nil {
				return false
			}
		}
		m.CloseThrough(lastK)

		if len(scored) != batch.Len() {
			return false
		}
		for i, s := range scored {
			bp := batch.Points[i]
			if s.GridIndex != bp.GridIndex {
				return false
			}
			if math.Abs(s.Result.Stability-bp.Stability) > 1e-12 || s.Result.Defined != bp.Defined {
				return false
			}
			if len(s.Result.Missing) != len(bp.Missing) {
				return false
			}
			for j := range s.Result.Missing {
				if s.Result.Missing[j].Item != bp.Missing[j].Item {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMonitorMultipleCustomersIndependent(t *testing.T) {
	g := testGrid(t)
	m, _ := New(testConfig(t, 0.7))
	a := retail.NewBasket([]retail.ItemID{1, 2})
	bk := retail.NewBasket([]retail.ItemID{3, 4})
	for k := 0; k < 4; k++ {
		if _, err := m.Ingest(1, at(g, k, 1), a); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Ingest(2, at(g, k, 2), bk); err != nil {
			t.Fatal(err)
		}
	}
	// Customer 1 erodes; customer 2 stays healthy.
	if _, err := m.Ingest(1, at(g, 4, 1), retail.NewBasket([]retail.ItemID{1})); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(2, at(g, 4, 1), bk); err != nil {
		t.Fatal(err)
	}
	alerts := m.CloseThrough(4)
	if len(alerts) != 1 || alerts[0].Customer != 1 {
		t.Fatalf("alerts = %+v, want exactly customer 1", alerts)
	}
	if m.Customers() != 2 {
		t.Fatalf("Customers = %d", m.Customers())
	}
}

func TestMonitorTopJCapsBlame(t *testing.T) {
	g := testGrid(t)
	cfg := testConfig(t, 0.9)
	cfg.TopJ = 2
	m, _ := New(cfg)
	full := retail.NewBasket([]retail.ItemID{1, 2, 3, 4, 5, 6})
	for k := 0; k < 3; k++ {
		if _, err := m.Ingest(5, at(g, k, 1), full); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Ingest(5, at(g, 3, 1), retail.NewBasket([]retail.ItemID{1})); err != nil {
		t.Fatal(err)
	}
	alerts := m.CloseThrough(3)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d", len(alerts))
	}
	if len(alerts[0].Blame) != 2 {
		t.Fatalf("blame = %d items, want TopJ=2", len(alerts[0].Blame))
	}
}

func TestMonitorWarmupSuppressesColdStartAlerts(t *testing.T) {
	g := testGrid(t)
	cfg := testConfig(t, 0.7)
	cfg.WarmupWindows = 3
	m, _ := New(cfg)
	full := retail.NewBasket([]retail.ItemID{1, 2, 3})
	// Window 0 full, window 1 erodes hard — but warm-up (3 windows) must
	// suppress the alert.
	if _, err := m.Ingest(8, at(g, 0, 1), full); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(8, at(g, 1, 1), retail.NewBasket([]retail.ItemID{1})); err != nil {
		t.Fatal(err)
	}
	alerts, err := m.Ingest(8, at(g, 2, 1), full)
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 0 {
		t.Fatalf("warm-up did not suppress alert: %+v", alerts)
	}
	// After warm-up, the same erosion must alert.
	for k := 3; k < 6; k++ {
		if _, err := m.Ingest(8, at(g, k, 1), full); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Ingest(8, at(g, 6, 1), retail.NewBasket([]retail.ItemID{1})); err != nil {
		t.Fatal(err)
	}
	alerts = m.CloseThrough(6)
	if len(alerts) != 1 {
		t.Fatalf("post-warm-up erosion alerts = %d, want 1", len(alerts))
	}
	// Validation.
	bad := cfg
	bad.WarmupWindows = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative warm-up accepted")
	}
}

func TestMonitorDenormalizedInputTolerated(t *testing.T) {
	g := testGrid(t)
	m, _ := New(testConfig(t, 0.5))
	// Raw, unsorted, duplicated input must be normalized on ingest.
	if _, err := m.Ingest(1, at(g, 0, 1), retail.Basket{3, 1, 3, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Ingest(1, at(g, 1, 1), retail.Basket{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	v, _, ok := m.Stability(1)
	if !ok || v != 1 {
		t.Fatalf("stability = %v, %v", v, ok)
	}
}
