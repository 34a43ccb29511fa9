package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/eval"
	"github.com/gautrais/stability/internal/population"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/serve"
	"github.com/gautrais/stability/internal/store"
	"github.com/gautrais/stability/internal/stream"
	"github.com/gautrais/stability/internal/window"
)

// Daemon defaults the in-process layers are built with, so each layer runs
// exactly as it does inside attritiond.
const (
	daemonQueue       = 64
	daemonAlertBuffer = 65536
	daemonSave        = time.Minute
	daemonFlush       = 2 * time.Second
)

// stabilityPasses is how many times the stability layers answer every
// customer, in 128-id batches; serveGets is how many single GETs the
// in-process handler answers.
const (
	stabilityPasses = 20
	serveGets       = 2048
)

// runTraced is the traced run. It replays the fixture in-process through
// each stacked layer (core → Monitor → ShardedMonitor → Ingestor → serve
// handler, and store → window → population → eval for the offline path),
// timing calls into each layer's public functions, then repeats every
// workload once with client-side spans, plus one untraced ingest
// repetition to price the tracing. End-to-end figures never come from
// this run.
func runTraced(o options, fxDir string, w io.Writer) error {
	fx, err := loadFixture(fxDir, o.seed, true)
	if err != nil {
		return err
	}
	labels, err := readLabels(fxDir)
	if err != nil {
		return err
	}
	tr := newTracer()
	t := newTally()
	led := &ledger{fx: fx, tr: tr, t: t}
	if err := led.run(o, labels); err != nil {
		return err
	}

	untraced, traced, mixed, offline := newTally(), newTally(), newTally(), newTally()
	if err := ingestRep(o, fx, untraced, nil); err != nil {
		return err
	}
	if err := ingestRep(o, fx, traced, tr); err != nil {
		return err
	}
	if err := mixedRep(o, fx, mixed, tr); err != nil {
		return err
	}
	if err := evaluateRep(fx, labels, offline, tr, rand.New(rand.NewSource(o.seed))); err != nil {
		return err
	}
	for _, x := range []*tally{untraced, traced, mixed, offline} {
		t.attempted += x.attempted
		t.failed += x.failed
		t.problems = append(t.problems, x.problems...)
	}

	for _, name := range []string{"ingest", "stability_batch", "stability"} {
		v, _ := mixed.handlerUS[name].median()
		led.add("serve.handler_us."+name, v, "us", mixed.handlerBase[name])
	}
	late, _, n := mixed.percentile("client.late_p99_ms")
	led.add("client.late_p99_ms", late, "ms", n)
	backlog, n := mixed.backlog.median()
	led.add("client.backlog", backlog, "receipts", n)
	plain, _ := untraced.receiptsPS.median()
	withSpans, _ := traced.receiptsPS.median()
	led.add("trace.overhead_pct", 100*(plain-withSpans)/plain, "%", 2)

	ref := fx.ref
	fmt.Fprintln(w, environment(ref))
	printLadder(w, "ingest ladder (ns/receipt)", []string{"core", "monitor", "sharded", "ingestor", "serve", "http"}, []float64{
		led.get("core.observe_ns") * float64(ref.WindowsScored) / float64(ref.ReplayReceipts),
		led.get("stream.monitor.ingest_ns"),
		led.get("stream.sharded.ingest_ns"),
		led.get("stream.ingestor.ingest_ns"),
		led.get("serve.ingest_ns"),
		1e9 / plain,
	})
	// The query ladder tops out at the mixed workload's batch p50: reads
	// under live ingestion, the only place the benchmark times them.
	batchP50, _, _ := mixed.percentile("query_batch_p50_ms")
	printLadder(w, "query ladder (ns/score)", []string{"sharded", "ingestor", "serve", "http"}, []float64{
		led.get("stream.sharded.stabilities_ns"),
		led.get("stream.ingestor.stabilities_ns"),
		led.get("serve.batch_ns"),
		batchP50 * 1e6 / queryBatch,
	})
	names, self := tr.selfTimes()
	fmt.Fprintln(w, "span self time:")
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %12.3f ms\n", name, ms(self[name]))
	}
	path := filepath.Join(o.work, "traces", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintln(w, "spans written to", path)
	return report(w, o, ref, t, led.metrics)
}

// ladderShares turns cumulative per-unit costs of stacked layers (each
// layer includes everything below it) into each layer's share of the top:
// (L[i] - L[i-1]) / L[top], with L[-1] = 0. A negative share means the
// layer measured faster than the one beneath it.
func ladderShares(levels []float64) []float64 {
	out := make([]float64, len(levels))
	if len(levels) == 0 || levels[len(levels)-1] == 0 {
		return out
	}
	top := levels[len(levels)-1]
	prev := 0.0
	for i, l := range levels {
		out[i] = (l - prev) / top
		prev = l
	}
	return out
}

func printLadder(w io.Writer, title string, names []string, levels []float64) {
	fmt.Fprintln(w, title+":")
	for i, s := range ladderShares(levels) {
		fmt.Fprintf(w, "  %-10s %14.1f  share %6.1f%%\n", names[i], levels[i], 100*s)
	}
}

// ledger collects the per-layer metrics of the in-process replays.
type ledger struct {
	fx      *fixtureData
	tr      *tracer
	t       *tally
	root    int
	metrics []metric
}

func (l *ledger) add(name string, v float64, unit string, n int) {
	l.metrics = append(l.metrics, metric{name: name, value: v, unit: unit, n: n})
}

func (l *ledger) get(name string) float64 {
	for _, m := range l.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// span times fn as a child of the ledger's root span.
func (l *ledger) span(name string, fn func() error) error {
	id := l.tr.begin(name, l.root, 0)
	defer l.tr.end(id)
	return fn()
}

func perUnit(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// memDelta reports allocations per unit across fn.
func memDelta(n int, fn func() error) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n), err
}

func (l *ledger) run(o options, labels []retail.Label) error {
	l.root = l.tr.begin("ledger", 0, 0)
	defer l.tr.end(l.root)
	// store: read the full feed.
	blob, err := os.ReadFile(filepath.Join(l.fx.dir, feedFile))
	if err != nil {
		return err
	}
	var st *store.Store
	var reads samples
	if err := l.span("store.ReadBinary", func() error {
		for i := 0; i < minReps; i++ {
			start := now()
			s, err := store.ReadBinary(bytes.NewReader(blob))
			if err != nil {
				return err
			}
			reads.add(perUnit(now().Sub(start), s.NumReceipts()))
			st = s
		}
		return nil
	}); err != nil {
		return err
	}
	v, _ := reads.median()
	l.add("store.read_ns", v, "ns/receipt", st.NumReceipts())

	minT, maxT, _ := st.TimeRange()
	grid, err := window.NewGrid(minT, window.Span{Months: modelSpan})
	if err != nil {
		return err
	}
	if err := l.coreAndWindow(st, grid, grid.Index(maxT)); err != nil {
		return err
	}
	if err := l.populationAndEval(st, labels, grid, grid.Index(maxT)); err != nil {
		return err
	}
	if err := l.storeAppend(o); err != nil {
		return err
	}
	if err := l.streamLayers(o); err != nil {
		return err
	}
	return l.serveLayer(o)
}

// coreAndWindow times window.WindowizeInto per customer, and the tracker
// over exactly the windows the replay closes: each customer's earlier
// windows warm a tracker untimed, then Observe (and, on a second tracker,
// ObserveStability) runs timed over the replayed windows.
func (l *ledger) coreAndWindow(st *store.Store, grid window.Grid, lastK int) error {
	ref := l.fx.ref
	var wd window.Windowed
	var windowize time.Duration
	if err := l.span("window.WindowizeInto", func() error {
		start := now()
		var err error
		st.Each(func(h retail.History) bool {
			err = window.WindowizeInto(&wd, h, grid, lastK)
			return err == nil
		})
		windowize = now().Sub(start)
		return err
	}); err != nil {
		return err
	}
	l.add("window.windowize_ns", perUnit(windowize, st.NumCustomers()), "ns/customer", st.NumCustomers())

	firstClosed, lastClosed := ref.Barriers[0].Window, ref.Watermark-1
	for _, explain := range []bool{true, false} {
		tk, err := core.NewTracker(core.Options{Alpha: modelAlpha})
		if err != nil {
			return err
		}
		var busy time.Duration
		windows := 0
		name := "core.Tracker.ObserveStability"
		if explain {
			name = "core.Tracker.Observe"
		}
		if err := l.span(name, func() error {
			var err error
			st.Each(func(h retail.History) bool {
				if err = window.WindowizeInto(&wd, h, grid, lastClosed); err != nil {
					return false
				}
				tk.Reset()
				i := 0
				for ; i < len(wd.Windows) && wd.Windows[i].Index < firstClosed; i++ {
					tk.Observe(wd.Windows[i].Items)
				}
				// Windowize extends past lastClosed to cover every receipt;
				// the replay leaves those windows open.
				j := i
				for j < len(wd.Windows) && wd.Windows[j].Index <= lastClosed {
					j++
				}
				start := now()
				for _, win := range wd.Windows[i:j] {
					if explain {
						tk.Observe(win.Items)
					} else {
						tk.ObserveStability(win.Items)
					}
				}
				busy += now().Sub(start)
				windows += j - i
				return true
			})
			return err
		}); err != nil {
			return err
		}
		if windows != ref.WindowsScored {
			l.t.problem("core replay scored %d windows, the fixture counts %d", windows, ref.WindowsScored)
		}
		if explain {
			l.add("core.observe_ns", perUnit(busy, windows), "ns/window", windows)
			l.add("core.explain_yield", float64(len(ref.Alerts))/float64(windows), "alerts/window", windows)
		} else {
			l.add("core.observe_stability_ns", perUnit(busy, windows), "ns/window", windows)
		}
	}
	return nil
}

// populationAndEval times population.AnalyzeStability at Workers 1 and
// NumCPU on the labelled customers, and eval.AUROC per window.
func (l *ledger) populationAndEval(st *store.Store, labels []retail.Label, grid window.Grid, lastK int) error {
	hs, def, err := labelledHistories(st, labels)
	if err != nil {
		return err
	}
	model, err := core.New(core.Options{Alpha: modelAlpha})
	if err != nil {
		return err
	}
	var series []core.Series
	perCustomer := map[int]float64{}
	for _, workers := range []int{1, runtime.NumCPU()} {
		var runs samples
		if err := l.span(fmt.Sprintf("population.AnalyzeStability.w%d", workers), func() error {
			for i := 0; i < minReps; i++ {
				start := now()
				s, err := population.AnalyzeStability(model, hs, grid, lastK, population.Options{Workers: workers})
				if err != nil {
					return err
				}
				runs.add(perUnit(now().Sub(start), len(hs)))
				series = s
			}
			return nil
		}); err != nil {
			return err
		}
		perCustomer[workers], _ = runs.median()
	}
	w1, wN := perCustomer[1], perCustomer[runtime.NumCPU()]
	l.add("population.ns_per_customer_w1", w1, "ns/customer", len(hs))
	l.add("population.ns_per_customer_wN", wN, "ns/customer", len(hs))
	l.add("population.speedup", w1/wN, "x", runtime.NumCPU())

	scores := make([]float64, len(series))
	var busy time.Duration
	calls := 0
	if err := l.span("eval.AUROC", func() error {
		for pass := 0; pass < 10; pass++ {
			for k := 0; k <= lastK; k++ {
				for i, s := range series {
					v := 1.0
					if x, ok := s.StabilityAt(k); ok {
						v = x
					}
					scores[i] = 1 - v
				}
				start := now()
				_, _ = eval.AUROC(scores, def)
				busy += now().Sub(start)
				calls++
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.add("eval.auroc_ms", ms(busy)/float64(calls), "ms/window", calls)
	return nil
}

// decodeEvents decodes the fixture's bodies into ingest batches, the
// form the serve handler hands the Ingestor.
func decodeEvents(fx *fixtureData) ([][]stream.ReceiptEvent, int, error) {
	out := make([][]stream.ReceiptEvent, 0, len(fx.bodies))
	n := 0
	for _, b := range fx.bodies {
		var req struct {
			Receipts []feedReceipt `json:"receipts"`
		}
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, 0, err
		}
		batch := make([]stream.ReceiptEvent, len(req.Receipts))
		for i, rc := range req.Receipts {
			batch[i] = stream.ReceiptEvent{Customer: retail.CustomerID(rc.Customer), Time: rc.Time, Items: basketOf(rc.Items)}
		}
		out = append(out, batch)
		n += len(batch)
	}
	return out, n, nil
}

// storeAppend times Store.WriteBinary of one barrier-sized delta (the
// receipts between the replay's first two close barriers) appended to a
// journal file, per receipt.
func (l *ledger) storeAppend(o options) error {
	ref := l.fx.ref
	if len(ref.Barriers) < 2 {
		return fmt.Errorf("fixture has %d barriers, need 2", len(ref.Barriers))
	}
	batches, _, err := decodeEvents(l.fx)
	if err != nil {
		return err
	}
	b := store.NewBuilder()
	n := 0
	for _, batch := range batches[ref.Barriers[0].Post:ref.Barriers[1].Post] {
		for _, ev := range batch {
			if err := b.Add(ev.Customer, ev.Time, ev.Items, 0); err != nil {
				return err
			}
			n++
		}
	}
	delta := b.Build()
	dir, err := os.MkdirTemp(filepath.Join(o.work, "runs"), "append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var runs samples
	if err := l.span("store.WriteBinary", func() error {
		for i := 0; i < 5; i++ {
			f, err := os.OpenFile(filepath.Join(dir, "journal.stbj"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			start := now()
			err = delta.WriteBinary(f)
			runs.add(perUnit(now().Sub(start), n))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	v, _ := runs.median()
	l.add("store.append_ns", v, "ns/receipt", n)
	return nil
}

// replayInto feeds every batch through ingest under the daemon's close
// rule, calling closeFn at each barrier, and returns the barrier times.
func replayInto(batches [][]stream.ReceiptEvent, rule *closeRule, closeFn func(k int) error, ingest func(stream.ReceiptEvent) error) (samples, error) {
	var barriers samples
	for _, batch := range batches {
		for _, ev := range batch {
			if k := rule.advance(ev.Time); k >= 0 {
				start := now()
				if err := closeFn(k); err != nil {
					return nil, err
				}
				barriers.add(ms(now().Sub(start)))
			}
			if err := ingest(ev); err != nil {
				return nil, err
			}
		}
	}
	return barriers, nil
}

// stabilityBatches cuts the seeded permutation into 128-id batches.
func stabilityBatches(fx *fixtureData) [][]retail.CustomerID {
	var out [][]retail.CustomerID
	for lo := 0; lo < len(fx.perm); lo += queryBatch {
		var ids []retail.CustomerID
		for _, id := range fx.perm[lo:min(lo+queryBatch, len(fx.perm))] {
			ids = append(ids, retail.CustomerID(id))
		}
		out = append(out, ids)
	}
	return out
}

// timeStabilities answers every batch stabilityPasses times, per score.
func timeStabilities(batches [][]retail.CustomerID, fn func([]retail.CustomerID, []stream.CustomerStability) []stream.CustomerStability) (float64, int) {
	var dst []stream.CustomerStability
	scores := 0
	start := now()
	for pass := 0; pass < stabilityPasses; pass++ {
		for _, ids := range batches {
			dst = fn(ids, dst)
			scores += len(dst)
		}
	}
	return perUnit(now().Sub(start), scores), scores
}

// streamLayers replays the fixture through Monitor, ShardedMonitor and
// Ingestor, each restored from the warm SMN1.
func (l *ledger) streamLayers(o options) error {
	fx, ref := l.fx, l.fx.ref
	warm, err := os.ReadFile(filepath.Join(fx.dir, warmFile))
	if err != nil {
		return err
	}
	cfg, err := daemonConfig(ref)
	if err != nil {
		return err
	}
	shards := runtime.GOMAXPROCS(0)

	// Monitor: the single-threaded baseline.
	batches, n, err := decodeEvents(fx)
	if err != nil {
		return err
	}
	mon, err := stream.ReadMonitorSnapshot(bytes.NewReader(warm), cfg)
	if err != nil {
		return err
	}
	wm, ok := mon.Watermark()
	alerts := 0
	var busy time.Duration
	var barriers samples
	allocs, bytesPer, err := memDelta(n, func() error {
		return l.span("stream.Monitor", func() error {
			start := now()
			b, err := replayInto(batches, restoredRule(cfg.Grid, wm, ok),
				func(k int) error { alerts += len(mon.CloseThrough(k)); return nil },
				func(ev stream.ReceiptEvent) error {
					a, err := mon.Ingest(ev.Customer, ev.Time, ev.Items)
					alerts += len(a)
					return err
				})
			busy, barriers = now().Sub(start), b
			return err
		})
	})
	if err != nil {
		return err
	}
	if alerts != len(ref.Alerts) {
		l.t.problem("Monitor replay raised %d alerts, reference %d", alerts, len(ref.Alerts))
	}
	l.add("stream.monitor.ingest_ns", perUnit(busy, n), "ns/receipt", n)
	l.add("stream.monitor.allocs", allocs, "allocs/receipt", n)
	l.add("stream.monitor.bytes", bytesPer, "B/receipt", n)
	mean, nb := barriers.mean()
	l.add("stream.monitor.barrier_ms", mean, "ms", nb)
	worst, _ := barriers.max()
	l.add("stream.monitor.barrier_max_ms", worst, "ms", nb)

	// ShardedMonitor at the daemon's shard count; restore timed first.
	var restores samples
	var sm *stream.ShardedMonitor
	if err := l.span("stream.ReadShardedMonitorSnapshot", func() error {
		for i := 0; i < minReps; i++ {
			if sm != nil {
				if _, err := sm.Close(); err != nil {
					return err
				}
			}
			start := now()
			s, err := stream.ReadShardedMonitorSnapshot(bytes.NewReader(warm), cfg, shards)
			if err != nil {
				return err
			}
			restores.add(ms(now().Sub(start)))
			sm = s
		}
		return nil
	}); err != nil {
		return err
	}
	v, _ := restores.median()
	l.add("stream.restore_ms", v, "ms", sm.Customers())
	if batches, _, err = decodeEvents(fx); err != nil {
		return err
	}
	wm, ok = sm.Watermark()
	alerts = 0
	allocs, _, err = memDelta(n, func() error {
		return l.span("stream.ShardedMonitor", func() error {
			start := now()
			_, err := replayInto(batches, restoredRule(cfg.Grid, wm, ok),
				func(k int) error {
					a, err := sm.CloseThrough(k)
					alerts += len(a)
					return err
				},
				func(ev stream.ReceiptEvent) error { return sm.Ingest(ev.Customer, ev.Time, ev.Items) })
			busy = now().Sub(start)
			return err
		})
	})
	if err != nil {
		return err
	}
	if alerts != len(ref.Alerts) {
		l.t.problem("ShardedMonitor replay raised %d alerts, reference %d", alerts, len(ref.Alerts))
	}
	l.add("stream.sharded.ingest_ns", perUnit(busy, n), "ns/receipt", n)
	l.add("stream.sharded.allocs", allocs, "allocs/receipt", n)
	ids := stabilityBatches(fx)
	var perScore float64
	var scores int
	_ = l.span("stream.ShardedMonitor.Stabilities", func() error {
		perScore, scores = timeStabilities(ids, sm.Stabilities)
		return nil
	})
	l.add("stream.sharded.stabilities_ns", perScore, "ns/score", scores)
	if _, err := sm.Close(); err != nil {
		return err
	}

	// Ingestor: pre-decoded batches through the bounded queue and drainer.
	dir, err := os.MkdirTemp(filepath.Join(o.work, "runs"), "ingestor-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := os.WriteFile(filepath.Join(dir, "state.smn"), warm, 0o644); err != nil {
		return err
	}
	ing, err := stream.NewIngestor(stream.IngestorConfig{
		Monitor: cfg, QueueBatches: daemonQueue, Policy: stream.PolicyBlock, AlertBuffer: daemonAlertBuffer,
		StatePath: filepath.Join(dir, "state.smn"), SaveInterval: daemonSave, FlushInterval: daemonFlush,
		JournalPath: filepath.Join(dir, "journal.stbj"),
	})
	if err != nil {
		return err
	}
	if batches, _, err = decodeEvents(fx); err != nil {
		ing.Close()
		return err
	}
	var wait time.Duration
	err = l.span("stream.Ingestor", func() error {
		start := now()
		for _, batch := range batches {
			es := now()
			if _, err := ing.Enqueue(batch); err != nil {
				return err
			}
			wait += now().Sub(es)
		}
		for ing.Metrics().ReceiptsIngested < uint64(n) {
			time.Sleep(50 * time.Microsecond)
		}
		busy = now().Sub(start)
		return nil
	})
	if err != nil {
		ing.Close()
		return err
	}
	if got := ing.Metrics().AlertsEmitted; got != uint64(len(ref.Alerts)) {
		l.t.problem("Ingestor emitted %d alerts, reference %d", got, len(ref.Alerts))
	}
	l.add("stream.ingestor.ingest_ns", perUnit(busy, n), "ns/receipt", n)
	l.add("stream.ingestor.enqueue_wait_ms", ms(wait), "ms", len(batches))
	_ = l.span("stream.Ingestor.Stabilities", func() error {
		perScore, scores = timeStabilities(ids, ing.Stabilities)
		return nil
	})
	l.add("stream.ingestor.stabilities_ns", perScore, "ns/score", scores)
	return ing.Close()
}

// daemonConfig is the monitor configuration attritiond runs with on the
// fixture's grid.
func daemonConfig(ref *reference) (stream.Config, error) {
	g, err := window.NewGrid(ref.Origin, window.Span{Months: modelSpan})
	return monitorConfig(g), err
}

// serveLayer drives the serve handler in-process with the pre-encoded
// bodies through drain, then the batch and single stability endpoints.
func (l *ledger) serveLayer(o options) error {
	fx, ref := l.fx, l.fx.ref
	dir, err := os.MkdirTemp(filepath.Join(o.work, "runs"), "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyFile(filepath.Join(dir, "state.smn"), filepath.Join(fx.dir, warmFile)); err != nil {
		return err
	}
	cfg, err := daemonConfig(ref)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Monitor: cfg, QueueBatches: daemonQueue, Policy: stream.PolicyBlock,
		AlertBuffer: daemonAlertBuffer, StatePath: filepath.Join(dir, "state.smn"), SaveInterval: daemonSave,
		FlushInterval: daemonFlush, JournalPath: filepath.Join(dir, "journal.stbj"),
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	reqs := make([]*http.Request, len(fx.bodies))
	for i, b := range fx.bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/receipts", bytes.NewReader(b))
		reqs[i].Header.Set("Content-Type", "application/json")
	}
	n := ref.ReplayReceipts
	var busy time.Duration
	allocs, _, err := memDelta(n, func() error {
		return l.span("serve.Handler.ingest", func() error {
			start := now()
			for i, req := range reqs {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					return fmt.Errorf("in-process POST %d: status %d", i, rec.Code)
				}
			}
			for srv.Ingestor().Metrics().ReceiptsIngested < uint64(n) {
				time.Sleep(50 * time.Microsecond)
			}
			busy = now().Sub(start)
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.add("serve.ingest_ns", perUnit(busy, n), "ns/receipt", n)
	l.add("serve.ingest_allocs", allocs, "allocs/receipt", n)

	var batchReqs []*http.Request
	for pass := 0; pass < 2; pass++ {
		for lo := 0; lo < len(fx.perm); lo += queryBatch {
			body := batchBody(fx.perm[lo:min(lo+queryBatch, len(fx.perm))])
			batchReqs = append(batchReqs, httptest.NewRequest(http.MethodPost, "/v1/stability:batch", bytes.NewReader(body)))
		}
	}
	scores := 2 * len(fx.perm)
	if err := l.span("serve.Handler.stability_batch", func() error {
		start := now()
		for _, req := range batchReqs {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("in-process batch query: status %d", rec.Code)
			}
		}
		busy = now().Sub(start)
		return nil
	}); err != nil {
		return err
	}
	l.add("serve.batch_ns", perUnit(busy, scores), "ns/score", scores)

	var getReqs []*http.Request
	for i := 0; i < serveGets; i++ {
		getReqs = append(getReqs, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/customers/%d/stability", fx.perm[i%len(fx.perm)]), nil))
	}
	if err := l.span("serve.Handler.stability", func() error {
		start := now()
		for _, req := range getReqs {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
				return fmt.Errorf("in-process GET: status %d", rec.Code)
			}
		}
		busy = now().Sub(start)
		return nil
	}); err != nil {
		return err
	}
	l.add("serve.get_ns", perUnit(busy, len(getReqs)), "ns/call", len(getReqs))
	return srv.Close()
}
