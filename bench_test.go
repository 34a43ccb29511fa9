// Benchmarks regenerating every figure and experiment of the paper, plus
// micro-benchmarks of each subsystem. One bench per figure/table per
// DESIGN.md:
//
//	Figure 1 → BenchmarkFigure1StabilityAUROC, BenchmarkFigure1RFMAUROC,
//	           BenchmarkFigure1Full
//	Figure 2 → BenchmarkFigure2ExplanationTrace
//	CV-1     → BenchmarkParamSearchCV
//	EXT-1    → BenchmarkExplanationQuality
//	EXT-2/3/4 ablations → BenchmarkAblationAlpha/Window/Policy
//
// Run with: go test -bench=. -benchmem
package stability_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"
	"time"

	"github.com/gautrais/stability"
	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/eval"
	"github.com/gautrais/stability/internal/experiments"
	"github.com/gautrais/stability/internal/gen"
	"github.com/gautrais/stability/internal/logreg"
	"github.com/gautrais/stability/internal/population"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/rfm"
	"github.com/gautrais/stability/internal/serve"
	"github.com/gautrais/stability/internal/store"
	"github.com/gautrais/stability/internal/stream"
	"github.com/gautrais/stability/internal/window"
)

// benchGen is a dataset configuration small enough to iterate but large
// enough to exercise the real code paths.
func benchGen() gen.Config {
	cfg := gen.NewConfig()
	cfg.Customers = 240
	cfg.Segments = 80
	cfg.ProductsPerSegment = 2
	return cfg
}

var benchDataset *gen.Dataset

func sharedDataset(b *testing.B) *gen.Dataset {
	b.Helper()
	if benchDataset == nil {
		ds, err := gen.Generate(benchGen())
		if err != nil {
			b.Fatal(err)
		}
		benchDataset = ds
	}
	return benchDataset
}

// --- Figure 1 ---

// BenchmarkFigure1StabilityAUROC measures the stability model's half of
// Figure 1: scoring the whole population at every evaluation window.
func BenchmarkFigure1StabilityAUROC(b *testing.B) {
	ds := sharedDataset(b)
	pop, err := experiments.NewPopulation(ds)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := window.NewGrid(ds.Config.Start, window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	model, err := core.New(core.Options{Alpha: 2})
	if err != nil {
		b.Fatal(err)
	}
	evalKs := []int{5, 6, 7, 8, 9, 10, 11}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range pop.Histories {
			wd, err := window.Windowize(h, grid, 11)
			if err != nil {
				b.Fatal(err)
			}
			series, err := model.AnalyzeStability(wd)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range evalKs {
				if _, ok := series.StabilityAt(k); !ok {
					_ = ok
				}
			}
		}
	}
}

// BenchmarkFigure1RFMAUROC measures the baseline's half of Figure 1: one
// RFM training + scoring pass at the first post-onset window.
func BenchmarkFigure1RFMAUROC(b *testing.B) {
	ds := sharedDataset(b)
	pop, err := experiments.NewPopulation(ds)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := window.NewGrid(ds.Config.Start, window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	labels := make([]bool, pop.N())
	copy(labels, pop.Labels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline, err := rfm.Train(grid, 9, pop.Histories, labels, rfm.DefaultTrainOptions())
		if err != nil {
			b.Fatal(err)
		}
		scores := make([]float64, pop.N())
		for j, h := range pop.Histories {
			scores[j] = baseline.Score(h)
		}
		if _, err := eval.AUROC(scores, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Full regenerates the entire figure (both curves, all
// months, CV folds) per iteration — the end-to-end cost of the headline
// experiment.
func BenchmarkFigure1Full(b *testing.B) {
	cfg := experiments.DefaultFigure1Config()
	cfg.Gen = benchGen()
	ds, err := gen.Generate(cfg.Gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1On(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 2 ---

// BenchmarkFigure2ExplanationTrace regenerates the individual-customer
// trace with full explanations.
func BenchmarkFigure2ExplanationTrace(b *testing.B) {
	cfg := experiments.DefaultFigure2Config()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- CV-1 ---

// BenchmarkParamSearchCV regenerates the cross-validated (α, w) grid search
// on a reduced grid.
func BenchmarkParamSearchCV(b *testing.B) {
	cfg := experiments.DefaultParamSearchConfig()
	cfg.Gen = benchGen()
	cfg.Alphas = []float64{1.5, 2, 3}
	cfg.Spans = []int{1, 2}
	ds, err := gen.Generate(cfg.Gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ParamSearchOn(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXT experiments ---

// BenchmarkExplanationQuality regenerates EXT-1.
func BenchmarkExplanationQuality(b *testing.B) {
	cfg := experiments.DefaultExplanationQualityConfig()
	cfg.Gen = benchGen()
	ds, err := gen.Generate(cfg.Gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExplanationQualityOn(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAblation(b *testing.B, run func(*gen.Dataset, experiments.AblationConfig) (*experiments.AblationResult, error)) {
	cfg := experiments.DefaultAblationConfig()
	cfg.Gen = benchGen()
	cfg.Alphas = []float64{1.5, 3}
	cfg.Spans = []int{1, 2}
	ds, err := gen.Generate(cfg.Gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlpha regenerates EXT-2.
func BenchmarkAblationAlpha(b *testing.B) { benchAblation(b, experiments.AlphaAblationOn) }

// BenchmarkAblationWindow regenerates EXT-3.
func BenchmarkAblationWindow(b *testing.B) { benchAblation(b, experiments.WindowAblationOn) }

// BenchmarkAblationPolicy regenerates EXT-4.
func BenchmarkAblationPolicy(b *testing.B) { benchAblation(b, experiments.PolicyAblationOn) }

// BenchmarkGatewaySegments regenerates EXT-5.
func BenchmarkGatewaySegments(b *testing.B) {
	cfg := experiments.DefaultGatewayConfig()
	cfg.Gen = benchGen()
	ds, err := gen.Generate(cfg.Gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.GatewayOn(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFamilyAblation regenerates EXT-6 (post-onset months only, to
// keep the per-iteration cost reasonable).
func BenchmarkFamilyAblation(b *testing.B) {
	cfg := experiments.DefaultFamilyAblationConfig()
	cfg.Gen = benchGen()
	cfg.FirstMonth, cfg.LastMonth = 18, 24
	ds, err := gen.Generate(cfg.Gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FamilyAblationOn(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeadTime regenerates EXT-7.
func BenchmarkLeadTime(b *testing.B) {
	cfg := experiments.DefaultLeadTimeConfig()
	cfg.Gen = benchGen()
	ds, err := gen.Generate(cfg.Gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LeadTimeOn(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorIngest measures streaming throughput: receipts ingested
// per op across a whole population replay. The "single" case is the
// sequential Monitor baseline; the shards-N cases sweep the sharded engine
// (synchronous hash-partitioned ingest, close barriers fanned out over the
// shards in parallel). Between barriers ingest is serial, so only the
// barrier share scales; on a 1-CPU container the sweep is flat — judge
// scaling on multi-core hosts.
func BenchmarkMonitorIngest(b *testing.B) {
	ds := sharedDataset(b)
	grid, err := window.NewGrid(ds.Config.Start, window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	cfg := stream.Config{Grid: grid, Model: core.Options{Alpha: 2}, Beta: 0.6, WarmupWindows: 3}
	type event struct {
		id retail.CustomerID
		t  int64
		it retail.Basket
	}
	var feed []event
	ds.Store.Each(func(h retail.History) bool {
		for _, r := range h.Receipts {
			feed = append(feed, event{h.Customer, r.Time.UnixNano(), r.Items})
		}
		return true
	})
	sort.Slice(feed, func(i, j int) bool { return feed[i].t < feed[j].t })

	b.Run("single", func(b *testing.B) {
		b.ReportMetric(float64(len(feed)), "receipts/op")
		for i := 0; i < b.N; i++ {
			m, err := stream.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, ev := range feed {
				if _, err := m.Ingest(ev.id, time.Unix(0, ev.t), ev.it); err != nil {
					b.Fatal(err)
				}
			}
			m.CloseThrough(13)
		}
	})
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportMetric(float64(len(feed)), "receipts/op")
			for i := 0; i < b.N; i++ {
				m, err := stream.NewSharded(cfg, shards)
				if err != nil {
					b.Fatal(err)
				}
				for _, ev := range feed {
					if err := m.Ingest(ev.id, time.Unix(0, ev.t), ev.it); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := m.CloseThrough(13); err != nil {
					b.Fatal(err)
				}
				if _, err := m.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- population engine ---

// BenchmarkPopulationAnalyze measures sharded population scoring
// (stability-only hot path) across worker counts. On multi-core hardware
// throughput should scale near-linearly until the pool saturates the
// cores; the 1-worker case is the sequential baseline.
func BenchmarkPopulationAnalyze(b *testing.B) {
	ds := sharedDataset(b)
	grid, err := window.NewGrid(ds.Config.Start, window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	model, err := stability.NewModel(stability.Options{Alpha: 2})
	if err != nil {
		b.Fatal(err)
	}
	var histories []retail.History
	ds.Store.Each(func(h retail.History) bool {
		histories = append(histories, h)
		return true
	})
	through := ds.Config.Months/2 - 1
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportMetric(float64(len(histories)), "customers/op")
			for i := 0; i < b.N; i++ {
				if _, err := population.AnalyzeStability(model, histories, grid, through,
					population.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPopulationAnalyzeExplain is the same sweep on the full
// explanation path (blame lists built for every window).
func BenchmarkPopulationAnalyzeExplain(b *testing.B) {
	ds := sharedDataset(b)
	grid, err := window.NewGrid(ds.Config.Start, window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	model, err := stability.NewModel(stability.Options{Alpha: 2})
	if err != nil {
		b.Fatal(err)
	}
	var histories []retail.History
	ds.Store.Each(func(h retail.History) bool {
		histories = append(histories, h)
		return true
	})
	through := ds.Config.Months/2 - 1
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := stability.AnalyzePopulation(model, histories, grid, through,
					stability.PopulationOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- micro-benchmarks ---

// BenchmarkTrackerObserve measures the incremental per-window stability
// update at several repertoire sizes.
func BenchmarkTrackerObserve(b *testing.B) {
	for _, size := range []int{10, 50, 200, 1000} {
		b.Run("repertoire-"+strconv.Itoa(size), func(b *testing.B) {
			items := make([]retail.ItemID, size)
			for i := range items {
				items[i] = retail.ItemID(i + 1)
			}
			full := retail.NewBasket(items)
			half := retail.NewBasket(items[:size/2])
			tr, err := core.NewTracker(core.Options{Alpha: 2})
			if err != nil {
				b.Fatal(err)
			}
			tr.Observe(full)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					tr.ObserveStability(half)
				} else {
					tr.ObserveStability(full)
				}
			}
		})
	}
}

// BenchmarkTrackerExplain measures the explanation path (blame lists).
func BenchmarkTrackerExplain(b *testing.B) {
	items := make([]retail.ItemID, 100)
	for i := range items {
		items[i] = retail.ItemID(i + 1)
	}
	full := retail.NewBasket(items)
	half := retail.NewBasket(items[:50])
	tr, err := core.NewTracker(core.Options{Alpha: 2})
	if err != nil {
		b.Fatal(err)
	}
	tr.Observe(full)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tr.Observe(half)
		} else {
			tr.Observe(full)
		}
	}
}

// BenchmarkWindowize measures windowed-database construction.
func BenchmarkWindowize(b *testing.B) {
	ds := sharedDataset(b)
	grid, err := window.NewGrid(ds.Config.Start, window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	var histories []retail.History
	ds.Store.Each(func(h retail.History) bool {
		histories = append(histories, h)
		return len(histories) < 50
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := histories[i%len(histories)]
		if _, err := window.Windowize(h, grid, 13); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreIngest measures builder throughput (receipts/op).
func BenchmarkStoreIngest(b *testing.B) {
	ds := sharedDataset(b)
	type row struct {
		id retail.CustomerID
		r  retail.Receipt
	}
	var rows []row
	ds.Store.Each(func(h retail.History) bool {
		for _, r := range h.Receipts {
			rows = append(rows, row{h.Customer, r})
		}
		return len(rows) < 20000
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := stability.NewStoreBuilder()
		for _, r := range rows {
			if err := sb.AddReceipt(r.id, r.r); err != nil {
				b.Fatal(err)
			}
		}
		if sb.Build().NumReceipts() != len(rows) {
			b.Fatal("lost receipts")
		}
	}
}

// BenchmarkStoreBuild measures the frozen-store build — every history
// copied and sorted — across worker counts: the per-history work fans out
// over the population engine (PR 5), so multi-core hosts should scale
// until memory bandwidth saturates; a 1-CPU container shows a flat sweep
// by construction. The builder is built once and frozen repeatedly
// (Build never consumes the builder).
func BenchmarkStoreBuild(b *testing.B) {
	ds := sharedDataset(b)
	sb := store.NewBuilder()
	receipts := 0
	ds.Store.Each(func(h retail.History) bool {
		for _, r := range h.Receipts {
			if err := sb.AddReceipt(h.Customer, r); err != nil {
				b.Fatal(err)
			}
			receipts++
		}
		return true
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sb.BuildWith(store.Options{Workers: workers}).NumReceipts() != receipts {
					b.Fatal("lost receipts")
				}
			}
		})
	}
}

// BenchmarkGenerateExtend measures incremental dataset growth: appending
// months by resuming per-customer checkpoints (gen.Extend) versus the
// from-scratch cost of the same final horizon. Each iteration regenerates
// the base outside the timer, so the measured region is exactly the
// extension (resume + simulate new months + store append).
func BenchmarkGenerateExtend(b *testing.B) {
	const extraMonths = 4
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cfg := benchGen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ds, err := gen.GenerateWith(cfg, gen.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := gen.Extend(ds, extraMonths, gen.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreSnapshotWrite measures binary encoding throughput.
func BenchmarkStoreSnapshotWrite(b *testing.B) {
	ds := sharedDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.Store.WriteBinary(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogregTrain measures the from-scratch LR fit.
func BenchmarkLogregTrain(b *testing.B) {
	ds := sharedDataset(b)
	pop, err := experiments.NewPopulation(ds)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := window.NewGrid(ds.Config.Start, window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	ex := rfm.Extractor{Grid: grid}
	X := make([][]float64, pop.N())
	y := make([]int, pop.N())
	for i, h := range pop.Histories {
		X[i] = ex.Extract(h, 9)
		if pop.Labels[i] {
			y[i] = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := logreg.Train(X, y, logreg.DefaultTrainOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAUROC measures the rank-based AUROC at population scale.
func BenchmarkAUROC(b *testing.B) {
	n := 100000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = float64(i%997) / 997
		labels[i] = i%3 == 0
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.AUROC(scores, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerator measures synthetic dataset generation.
func BenchmarkGenerator(b *testing.B) {
	cfg := benchGen()
	cfg.Customers = 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := gen.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate sweeps the parallel dataset generator across customer
// counts and worker counts. Output is bit-identical at every worker count
// (differential-tested), so this measures pure scheduling: on multi-core
// hardware throughput should scale with workers until the cores saturate;
// on a 1-CPU container the worker sweep is flat by construction.
func BenchmarkGenerate(b *testing.B) {
	for _, customers := range []int{100, 400} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("customers-%d/workers-%d", customers, workers), func(b *testing.B) {
				cfg := benchGen()
				cfg.Customers = customers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := gen.GenerateWith(cfg, gen.Options{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMonitorCloseThrough measures the barrier hot path at population
// scale: many tracked customers, one watermark barrier per op. With the
// sorted-customer index a steady-state barrier is a linear scan plus the
// per-customer window scoring — no O(n log n) re-sort of the whole
// customer set per barrier. Alerts are suppressed (warm-up) so the
// measurement isolates the barrier machinery.
func BenchmarkMonitorCloseThrough(b *testing.B) {
	grid, err := window.NewGrid(time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC), window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, customers := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("customers-%d", customers), func(b *testing.B) {
			cfg := stream.Config{
				Grid:  grid,
				Model: core.Options{Alpha: 2},
				Beta:  0.6,
				// Never alert: the benchmark targets the barrier sweep, not
				// alert assembly.
				WarmupWindows: 1 << 30,
			}
			m, err := stream.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			basket := retail.NewBasket([]retail.ItemID{1, 2, 3, 4, 5, 6, 7, 8})
			start, _ := grid.Bounds(0)
			for c := 1; c <= customers; c++ {
				// Shuffled insertion order (stride walk) so the index merge
				// path is exercised, not an already-sorted append.
				id := retail.CustomerID((c*7919)%customers + 1)
				if _, err := m.Ingest(id, start, basket); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Each op closes exactly one window per customer: the
				// steady-state periodic watermark barrier.
				m.CloseThrough(i)
			}
		})
	}
}

// BenchmarkMonitorBatchQuery measures the batch stability read path on the
// sharded monitor: one Stabilities call scoring every tracked customer,
// with a recycled dst so the steady state allocates nothing per customer.
// "open" pays the per-shard control fan-out; "closed" is direct reads.
func BenchmarkMonitorBatchQuery(b *testing.B) {
	grid, err := window.NewGrid(time.Date(2012, time.May, 1, 0, 0, 0, 0, time.UTC), window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	const customers = 5000
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			cfg := stream.Config{Grid: grid, Model: core.Options{Alpha: 2}, Beta: 0.6, WarmupWindows: 2}
			m, err := stream.NewSharded(cfg, shards)
			if err != nil {
				b.Fatal(err)
			}
			basket := retail.NewBasket([]retail.ItemID{1, 2, 3, 4, 5, 6, 7, 8})
			ids := make([]retail.CustomerID, 0, customers)
			start, _ := grid.Bounds(0)
			next, _ := grid.Bounds(1)
			for c := 1; c <= customers; c++ {
				id := retail.CustomerID((c*7919)%customers + 1)
				ids = append(ids, id)
				for _, ts := range []time.Time{start, next} {
					if err := m.Ingest(id, ts, basket); err != nil {
						b.Fatal(err)
					}
				}
			}
			if _, err := m.CloseThrough(1); err != nil {
				b.Fatal(err)
			}
			dst := make([]stream.CustomerStability, 0, customers)
			run := func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer() // clears extra metrics, so report after it
				b.ReportMetric(float64(len(ids)), "scores/op")
				for i := 0; i < b.N; i++ {
					dst = m.Stabilities(ids, dst)
				}
			}
			b.Run("open", run)
			if _, err := m.Close(); err != nil {
				b.Fatal(err)
			}
			b.Run("closed", run)
		})
	}
}

// BenchmarkRFMExtract measures feature extraction.
func BenchmarkRFMExtract(b *testing.B) {
	ds := sharedDataset(b)
	pop, err := experiments.NewPopulation(ds)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := window.NewGrid(ds.Config.Start, window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	ex := rfm.Extractor{Grid: grid}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Extract(pop.Histories[i%pop.N()], 9)
	}
}

// --- serving layer (attritiond) ---

// serveBodies pre-marshals the shared dataset into month-phased POST
// bodies so the benchmarks measure the handler path, not json.Marshal.
func serveBodies(b *testing.B, batch int) (bodies [][]byte, receipts int, grid window.Grid) {
	b.Helper()
	ds := sharedDataset(b)
	grid, err := window.NewGrid(ds.Config.Start, window.Span{Months: 2})
	if err != nil {
		b.Fatal(err)
	}
	type event struct {
		t  int64
		rc serve.ReceiptIn
	}
	var feed []event
	ds.Store.Each(func(h retail.History) bool {
		for _, r := range h.Receipts {
			items := make([]uint32, len(r.Items))
			for i, it := range r.Items {
				items[i] = uint32(it)
			}
			feed = append(feed, event{r.Time.UnixNano(), serve.ReceiptIn{
				Customer: uint64(h.Customer), Time: r.Time, Items: items,
			}})
		}
		return true
	})
	sort.Slice(feed, func(i, j int) bool { return feed[i].t < feed[j].t })
	for lo := 0; lo < len(feed); lo += batch {
		hi := lo + batch
		if hi > len(feed) {
			hi = len(feed)
		}
		req := serve.IngestRequest{Receipts: make([]serve.ReceiptIn, 0, hi-lo)}
		for _, ev := range feed[lo:hi] {
			req.Receipts = append(req.Receipts, ev.rc)
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies, len(feed), grid
}

func serveConfig(grid window.Grid) serve.Config {
	return serve.Config{
		Monitor: stream.Config{Grid: grid, Model: core.Options{Alpha: 2}, Beta: 0.6, WarmupWindows: 3},
	}
}

// BenchmarkServeIngest measures the daemon's ingestion path end to end:
// HTTP decode, stale filter, bounded enqueue, drain into the sharded
// monitor, and the shutdown barrier. Batches are time-ordered, so this is
// the serving twin of BenchmarkMonitorIngest.
func BenchmarkServeIngest(b *testing.B) {
	bodies, receipts, grid := serveBodies(b, 500)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			b.ReportMetric(float64(receipts), "receipts/op")
			for i := 0; i < b.N; i++ {
				cfg := serveConfig(grid)
				cfg.Shards = shards
				s, err := serve.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				h := s.Handler()
				for _, body := range bodies {
					w := httptest.NewRecorder()
					h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/receipts", bytes.NewReader(body)))
					if w.Code != 200 {
						b.Fatalf("status %d: %s", w.Code, w.Body.String())
					}
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServeQuery measures the read path against a fully ingested
// daemon: per-customer stability lookups and alert-log pages.
func BenchmarkServeQuery(b *testing.B) {
	bodies, _, grid := serveBodies(b, 500)
	ds := sharedDataset(b)
	s, err := serve.New(serveConfig(grid))
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	for _, body := range bodies {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/receipts", bytes.NewReader(body)))
		if w.Code != 200 {
			b.Fatal(w.Code)
		}
	}
	if err := s.Close(); err != nil { // drain so queries hit settled state
		b.Fatal(err)
	}
	ids := ds.Store.Customers()
	b.Run("stability", func(b *testing.B) {
		b.ReportMetric(1, "scores/op")
		for i := 0; i < b.N; i++ {
			target := fmt.Sprintf("/v1/customers/%d/stability", ids[i%len(ids)])
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
			if w.Code != 200 && w.Code != 404 {
				b.Fatal(w.Code)
			}
		}
	})
	// Batch fan-in: one POST scores `size` customers in one lock
	// acquisition. scores/op lets benchjson derive scores/sec and compare
	// directly against the single-GET subbench above.
	for _, size := range []int{16, 128} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := 0; i < size; i++ {
				if err := enc.Encode(serve.BatchStabilityQuery{Customer: uint64(ids[i%len(ids)])}); err != nil {
					b.Fatal(err)
				}
			}
			body := buf.Bytes()
			b.ReportAllocs()
			b.ResetTimer() // clears extra metrics, so report after it
			b.ReportMetric(float64(size), "scores/op")
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/stability:batch", bytes.NewReader(body)))
				if w.Code != 200 {
					b.Fatal(w.Code)
				}
			}
		})
	}
	b.Run("alerts-page", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/alerts?max=100", nil))
			if w.Code != 200 {
				b.Fatal(w.Code)
			}
		}
	})
}
