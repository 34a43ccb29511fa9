package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gautrais/stability/internal/window"
)

func TestQuantileNearestRankAndCount(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		got, n := s.quantile(c.q)
		if got != c.want || n != 100 {
			t.Errorf("quantile(%v) = %v (n=%d), want %v (n=100)", c.q, got, n, c.want)
		}
	}
	if v, n := (samples{}).quantile(0.5); !math.IsNaN(v) || n != 0 {
		t.Errorf("empty quantile = %v (n=%d), want NaN (n=0)", v, n)
	}
}

func TestMedianMeanMax(t *testing.T) {
	s := samples{4, 1, 3, 2}
	if m, n := s.median(); m != 2.5 || n != 4 {
		t.Errorf("median = %v (n=%d), want 2.5 (n=4)", m, n)
	}
	if m, _ := (samples{3, 1, 2}).median(); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if m, _ := s.mean(); m != 2.5 {
		t.Errorf("mean = %v, want 2.5", m)
	}
	if m, _ := s.max(); m != 4 {
		t.Errorf("max = %v, want 4", m)
	}
}

// A failed operation misses every latency limit: recorded as +Inf, it
// sits above every real sample, so one failure in a hundred moves p99.
func TestFailureMissesEveryLimit(t *testing.T) {
	var s samples
	for i := 0; i < 99; i++ {
		s.add(1)
	}
	s.fail()
	if v, _ := s.quantile(0.99); v != 1 {
		t.Errorf("p99 with 1%% failed = %v, want 1", v)
	}
	s.fail()
	if v, n := s.quantile(0.99); !math.IsInf(v, 1) || n != 101 {
		t.Errorf("p99 with 2 failed of 101 = %v (n=%d), want +Inf (n=101)", v, n)
	}
}

// An open-loop sender against a handler that stalls once: the stalled
// request and every request due during the stall are charged from their
// due time, and the sender reports how late it ran.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	c := newClient()
	defer c.CloseIdleConnections()

	var lat, late samples
	sched := schedule{start: now().Add(5 * time.Millisecond), every: 5 * time.Millisecond}
	failed := openLoop(sched, 10, func(int) error {
		resp, err := c.Get(srv.URL)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}, &lat, &late)
	if failed != 0 || len(lat) != 10 || len(late) != 10 {
		t.Fatalf("failed=%d samples=%d/%d, want 0 and 10/10", failed, len(lat), len(late))
	}
	if ms := lat[2]; ms < 55 {
		t.Errorf("stalled request latency %.1fms, want >= 55", ms)
	}
	// Request 3 was due 5ms after the stalled one but could only leave
	// when it returned: ~55ms late, and charged for it.
	if late[3] < 45 || lat[3] < 45 {
		t.Errorf("request after the stall: late %.1fms latency %.1fms, want both >= 45", late[3], lat[3])
	}
	if late[0] > 20 || lat[0] > 20 {
		t.Errorf("request before the stall: late %.1fms latency %.1fms, want both < 20", late[0], lat[0])
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	var lat, late samples
	sched := schedule{start: now(), every: time.Millisecond}
	failed := openLoop(sched, 4, func(i int) error {
		if i == 1 {
			return http.ErrHandlerTimeout
		}
		return nil
	}, &lat, &late)
	if failed != 1 || !math.IsInf(lat[1], 1) || math.IsInf(lat[0], 1) {
		t.Errorf("failed=%d lat=%v, want one +Inf at index 1", failed, lat)
	}
}

func refAlerts() []refAlert {
	return []refAlert{
		{Customer: 7, Window: 5, Stability: 0.25, Drop: 0.5, Blame: []refBlame{{Item: 3, Share: 0.75}, {Item: 9, Share: 0.25}}},
		{Customer: 9, Window: 6, Stability: 0.5, Drop: 0.125},
	}
}

func wireOf(ref []refAlert) []wireAlert {
	out := make([]wireAlert, len(ref))
	for i, a := range ref {
		out[i] = wireAlert{Seq: uint64(i + 1), Customer: a.Customer, Window: a.Window, Stability: a.Stability, Drop: a.Drop,
			Blame: append([]refBlame(nil), a.Blame...)}
	}
	return out
}

func TestVerifyAlertsRejectsTampering(t *testing.T) {
	ref := refAlerts()
	if err := verifyAlerts(wireOf(ref), ref); err != nil {
		t.Fatalf("identical stream rejected: %v", err)
	}
	tamper := map[string]func(a []wireAlert) []wireAlert{
		"stability": func(a []wireAlert) []wireAlert { a[0].Stability = math.Nextafter(a[0].Stability, 1); return a },
		"blame":     func(a []wireAlert) []wireAlert { a[0].Blame[1].Share = 0.3; return a },
		"window":    func(a []wireAlert) []wireAlert { a[1].Window = 7; return a },
		"seq":       func(a []wireAlert) []wireAlert { a[1].Seq = 3; return a },
		"missing":   func(a []wireAlert) []wireAlert { return a[:1] },
	}
	for _, name := range []string{"stability", "blame", "window", "seq", "missing"} {
		if err := verifyAlerts(tamper[name](wireOf(ref)), ref); err == nil {
			t.Errorf("tampered %s accepted", name)
		}
	}
}

func TestVerifyStabilityRejectsTampering(t *testing.T) {
	want := refStability{Customer: 42, Stability: 0.625, Window: 9, OK: true}
	good := stabilityRow{Customer: 42, Stability: 0.625, Window: 9}
	if err := verifyStability(good, want); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}
	for name, row := range map[string]stabilityRow{
		"value":    {Customer: 42, Stability: 0.6250000000000001, Window: 9},
		"window":   {Customer: 42, Stability: 0.625, Window: 8},
		"customer": {Customer: 43, Stability: 0.625, Window: 9},
		"notfound": {Error: "customer 42 unknown or not yet scored"},
	} {
		if err := verifyStability(row, want); err == nil {
			t.Errorf("tampered %s accepted", name)
		}
	}
	unscored := refStability{Customer: 5}
	if err := verifyStability(stabilityRow{Error: "customer 5 unknown or not yet scored"}, unscored); err != nil {
		t.Errorf("not-found answer for an unscored customer rejected: %v", err)
	}
	if err := verifyStability(stabilityRow{Customer: 5, Stability: 1}, unscored); err == nil {
		t.Error("score for an unscored customer accepted")
	}
}

func TestCheckRowShape(t *testing.T) {
	if err := checkRowShape(stabilityRow{Customer: 3, Stability: 0.5, Window: 2}, 3); err != nil {
		t.Errorf("score row rejected: %v", err)
	}
	if err := checkRowShape(stabilityRow{Error: "customer 3 unknown or not yet scored"}, 3); err != nil {
		t.Errorf("not-found row rejected: %v", err)
	}
	if err := checkRowShape(stabilityRow{Customer: 4}, 3); err == nil {
		t.Error("row for another customer accepted")
	}
	if err := checkRowShape(stabilityRow{Error: "internal error"}, 3); err == nil {
		t.Error("unexpected error row accepted")
	}
}

func TestVerifyCounters(t *testing.T) {
	ref := &reference{ReplayReceipts: 1000, Watermark: 11, Tracked: 40}
	good := metricsDoc{ReceiptsIngested: 1000, Watermark: 11, CustomersRetained: 40}
	if err := verifyCounters(good, ref); err != nil {
		t.Fatalf("exact counters rejected: %v", err)
	}
	for name, tweak := range map[string]func(*metricsDoc){
		"ingested":  func(m *metricsDoc) { m.ReceiptsIngested-- },
		"stale":     func(m *metricsDoc) { m.ReceiptsStale = 1 },
		"shed":      func(m *metricsDoc) { m.ReceiptsShed = 1 },
		"rejected":  func(m *metricsDoc) { m.ReceiptsRejected = 1 },
		"watermark": func(m *metricsDoc) { m.Watermark = 10 },
		"customers": func(m *metricsDoc) { m.CustomersRetained = 39 },
	} {
		m := good
		tweak(&m)
		if err := verifyCounters(m, ref); err == nil {
			t.Errorf("tampered %s accepted", name)
		}
	}
}

func TestLadderShares(t *testing.T) {
	got := ladderShares([]float64{1, 3, 6, 10})
	want := []float64{0.1, 0.2, 0.3, 0.4}
	sum := 0.0
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("share[%d] = %v, want %v", i, got[i], want[i])
		}
		sum += got[i]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// A layer faster than the one below it shows as a negative share.
	if s := ladderShares([]float64{2, 1, 4}); s[1] != -0.25 {
		t.Errorf("negative share = %v, want -0.25", s[1])
	}
	if s := ladderShares([]float64{1, 0}); s[0] != 0 || s[1] != 0 {
		t.Errorf("zero top: %v, want zeros", s)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	tr.record("parent", 0, 1, base, base.Add(10*time.Millisecond))
	tr.record("child", 1, 1, base.Add(2*time.Millisecond), base.Add(5*time.Millisecond))
	names, self := tr.selfTimes()
	if strings.Join(names, ",") != "parent,child" {
		t.Fatalf("names = %v", names)
	}
	if self["parent"] != 7*time.Millisecond || self["child"] != 3*time.Millisecond {
		t.Errorf("self = %v, want parent 7ms child 3ms", self)
	}
}

func TestCloseRuleMatchesDaemonBarriers(t *testing.T) {
	g := mustTestGrid(t)
	rule := newCloseRule(g, 4)
	at := func(month int) time.Time { return g.Origin().AddDate(0, month, 3) }
	for _, c := range []struct {
		month, want int
	}{{12, 5}, {12, -1}, {13, -1}, {14, 6}, {13, -1}, {16, 7}, {17, -1}} {
		if got := rule.advance(at(c.month)); got != c.want {
			t.Errorf("receipt in month %d closes %d, want %d", c.month, got, c.want)
		}
	}
}

func mustTestGrid(t *testing.T) window.Grid {
	t.Helper()
	g, err := window.NewGrid(time.Date(2012, 5, 1, 0, 0, 0, 0, time.UTC), window.Span{Months: modelSpan})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCheckBatchShape(t *testing.T) {
	ids := []uint64{3, 4}
	good := []byte(`{"customer":3,"stability":0.5,"window":2,"start":"2012-09-01T00:00:00Z","end":"2012-11-01T00:00:00Z"}` + "\n" +
		`{"error":"customer 4 unknown or not yet scored"}` + "\n")
	if err := checkBatchShape(http.StatusOK, good, ids); err != nil {
		t.Fatalf("well-formed answer rejected: %v", err)
	}
	for name, c := range map[string]struct {
		status int
		raw    []byte
	}{
		"status":    {http.StatusInternalServerError, good},
		"short":     {http.StatusOK, good[:bytes.IndexByte(good, '\n')+1]},
		"wrong id":  {http.StatusOK, bytes.Replace(good, []byte(`"customer":3`), []byte(`"customer":5`), 1)},
		"bad error": {http.StatusOK, bytes.Replace(good, []byte("unknown or not yet scored"), []byte("internal error"), 1)},
	} {
		if err := checkBatchShape(c.status, c.raw, ids); err == nil {
			t.Errorf("%s: malformed answer accepted", name)
		}
	}
}
