package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/population"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/store"
	"github.com/gautrais/stability/internal/window"
)

// Workload constants. They are fixed here, never derived at run time, so
// two commits always offer the same load.
const (
	// mixedRate is the mixed workload's constant write rate, about half of
	// what ingest sustains on a 2-CPU machine.
	mixedRate = 70000 // receipts/s
	// readEvery spaces the mixed workload's scheduled reads. Slots cycle
	// batch, get, get, alert poll.
	readEvery = 4 * time.Millisecond
	// queryBatch is the ids per POST /v1/stability:batch.
	queryBatch = 128
	// verifyGets is how many customers the exact verification also
	// checks through single GETs.
	verifyGets = 256
	// evalSample is the customers per grid config whose series are checked
	// against one-at-a-time core.Model.AnalyzeStability.
	evalSample = 64
	// alertWait bounds how long a rep waits for the last alerts after the
	// daemon has drained every receipt.
	alertWait = 30 * time.Second
)

// fixtureData is a loaded fixture.
type fixtureData struct {
	dir    string
	ref    *reference
	bodies [][]byte
	counts []int    // receipts per body
	perm   []uint64 // seeded permutation of every customer id
	// barrierPost maps a closed window to the POST whose receipt fired its
	// close barrier.
	barrierPost map[int]int
}

func loadFixture(dir string, seed int64, withBodies bool) (*fixtureData, error) {
	ref, err := readReference(dir)
	if err != nil {
		return nil, err
	}
	fx := &fixtureData{dir: dir, ref: ref, barrierPost: map[int]int{}}
	for _, b := range ref.Barriers {
		fx.barrierPost[b.Window] = b.Post
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(ref.Stabilities)) {
		fx.perm = append(fx.perm, ref.Stabilities[i].Customer)
	}
	if withBodies {
		if fx.bodies, err = readBodies(filepath.Join(dir, bodiesFile)); err != nil {
			return nil, err
		}
		for i := range fx.bodies {
			fx.counts = append(fx.counts, min(postReceipts, ref.ReplayReceipts-i*postReceipts))
		}
		if len(fx.bodies) != ref.Posts {
			return nil, fmt.Errorf("fixture has %d bodies, reference says %d", len(fx.bodies), ref.Posts)
		}
	}
	return fx, nil
}

// stabilityOf returns the reference answer for a customer.
func (fx *fixtureData) stabilityOf(id uint64) (refStability, bool) {
	st := fx.ref.Stabilities
	lo, hi := 0, len(st)
	for lo < hi {
		mid := (lo + hi) / 2
		if st[mid].Customer < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(st) && st[lo].Customer == id {
		return st[lo], true
	}
	return refStability{}, false
}

// tally accumulates one run's measurements across repetitions.
// Per-repetition figures (set-up, throughput, peak RSS) are one value per
// repetition. Latencies are raw per-request samples of the current
// repetition until endRep folds them into per-repetition percentiles.
type tally struct {
	attempted, failed int
	problems          []string

	setup      samples // s
	receiptsPS samples // receipts/s
	windowsPS  samples // customer-windows/s
	rss        samples // MB
	backlog    samples // receipts

	post  samples // ms
	lag   samples // ms
	batch samples // ms
	get   samples // ms
	late  samples // ms, open-loop sender lateness

	// pct holds each latency metric's per-repetition percentile and n its
	// raw sample count over all repetitions.
	pct map[string]*samples
	n   map[string]int

	handlerUS   map[string]*samples
	handlerBase map[string]int
}

func newTally() *tally {
	return &tally{pct: map[string]*samples{}, n: map[string]int{},
		handlerUS: map[string]*samples{}, handlerBase: map[string]int{}}
}

// latencyMetrics are the percentile metrics. A run reports each as the
// median over repetitions of the repetition's nearest-rank percentile, so
// one disturbed repetition cannot carry the tail of the whole run.
var latencyMetrics = []struct {
	name string
	q    float64
	of   func(*tally) *samples
}{
	{"post_p50_ms", 0.50, func(t *tally) *samples { return &t.post }},
	{"post_p99_ms", 0.99, func(t *tally) *samples { return &t.post }},
	{"alert_lag_p50_ms", 0.50, func(t *tally) *samples { return &t.lag }},
	{"alert_lag_p99_ms", 0.99, func(t *tally) *samples { return &t.lag }},
	{"query_batch_p50_ms", 0.50, func(t *tally) *samples { return &t.batch }},
	{"query_batch_p99_ms", 0.99, func(t *tally) *samples { return &t.batch }},
	{"query_get_p50_ms", 0.50, func(t *tally) *samples { return &t.get }},
	{"query_get_p99_ms", 0.99, func(t *tally) *samples { return &t.get }},
	{"client.late_p99_ms", 0.99, func(t *tally) *samples { return &t.late }},
}

// endRep closes a repetition: every latency metric with samples gets the
// repetition's percentile, and the raw samples are cleared.
func (t *tally) endRep() {
	for _, m := range latencyMetrics {
		s := *m.of(t)
		if len(s) == 0 {
			continue
		}
		v, n := s.quantile(m.q)
		if t.pct[m.name] == nil {
			t.pct[m.name] = &samples{}
		}
		t.pct[m.name].add(v)
		t.n[m.name] += n
	}
	t.post, t.lag, t.batch, t.get, t.late = nil, nil, nil, nil, nil
}

// percentile returns a latency metric's median over repetitions, the
// number of repetitions, and the raw sample count behind it.
func (t *tally) percentile(name string) (v float64, reps, n int) {
	s := t.pct[name]
	if s == nil {
		return math.NaN(), 0, 0
	}
	v, reps = s.median()
	return v, reps, t.n[name]
}

// problem records a failed operation with its reason.
func (t *tally) problem(format string, args ...any) {
	t.failed++
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// merge folds a role's local tally into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.problems = append(t.problems, o.problems...)
	t.post = append(t.post, o.post...)
	t.lag = append(t.lag, o.lag...)
	t.batch = append(t.batch, o.batch...)
	t.get = append(t.get, o.get...)
	t.late = append(t.late, o.late...)
}

// postBody sends one pre-encoded POST /v1/receipts body and checks that
// every receipt was accepted: anything else (non-2xx, 429, shed, stale)
// fails the operation.
func postBody(c *http.Client, base string, body []byte, n int) error {
	resp, err := c.Post(base+"/v1/receipts", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var ir struct {
		Accepted int `json:"accepted"`
		Shed     int `json:"shed"`
		Stale    int `json:"stale"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		return fmt.Errorf("POST /v1/receipts: status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || ir.Accepted != n || ir.Shed != 0 || ir.Stale != 0 {
		return fmt.Errorf("POST /v1/receipts: status %d accepted %d of %d (shed %d, stale %d)",
			resp.StatusCode, ir.Accepted, n, ir.Shed, ir.Stale)
	}
	return nil
}

// readSSE holds GET /v1/alerts?stream=sse and hands every alert to on
// with its arrival time until want alerts arrived or ctx ends.
func readSSE(ctx context.Context, c *http.Client, base string, want int, connected *atomic.Bool, seen *atomic.Int64, on func(wireAlert, time.Time)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/alerts?stream=sse&after=0", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/alerts?stream=sse: status %d", resp.StatusCode)
	}
	connected.Store(true)
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for n := 0; n < want; {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		data, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		at := now()
		var a wireAlert
		if err := json.Unmarshal(data, &a); err != nil {
			return fmt.Errorf("SSE event: %w", err)
		}
		on(a, at)
		n++
		seen.Store(int64(n))
	}
	return nil
}

// lagOf returns the alert lag: arrival minus the send time of the POST
// that fired the alert's close barrier.
func (fx *fixtureData) lagOf(a wireAlert, at time.Time, sent []time.Time) (float64, bool) {
	p, ok := fx.barrierPost[a.Window]
	if !ok || p >= len(sent) || sent[p].IsZero() {
		return 0, false
	}
	return ms(at.Sub(sent[p])), true
}

// ingestRep is one closed-loop catch-up replay: one connection POSTs every
// body back to back while the second holds the SSE alert stream.
func ingestRep(o options, fx *fixtureData, t *tally, tr *tracer) (err error) {
	ref := fx.ref
	d, err := startDaemon(o, fx.dir, ref.Origin)
	if err != nil {
		return err
	}
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	t.setup.add(d.setup.Seconds())
	w, r := newClient(), newClient()
	defer w.CloseIdleConnections()
	defer r.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	sent := make([]time.Time, len(fx.bodies))
	var (
		got       []wireAlert
		arrived   []time.Time
		connected atomic.Bool
		seen      atomic.Int64
		drained   time.Time
		wt        = newTally()
	)
	_, err = population.Map(2, population.Options{Workers: 2}, func(role int) (struct{}, error) {
		if role == 1 {
			err := readSSE(ctx, r, d.base, len(ref.Alerts), &connected, &seen, func(a wireAlert, at time.Time) {
				got = append(got, a)
				arrived = append(arrived, at)
				tr.record("client.sse_event", 0, int64(a.Seq), at, at)
			})
			if err != nil {
				cancel() // release a writer still waiting for the stream
			}
			return struct{}{}, err
		}
		// Barrier alerts fire from the first POST on: hold it until the
		// stream is open so no alert waits on the subscription.
		for !connected.Load() {
			if ctx.Err() != nil {
				return struct{}{}, ctx.Err()
			}
			time.Sleep(100 * time.Microsecond)
		}
		for i, b := range fx.bodies {
			sent[i] = now()
			id := tr.begin("client.post", 0, int64(i+1))
			perr := postBody(w, d.base, b, fx.counts[i])
			tr.end(id)
			wt.attempted++
			if perr != nil {
				wt.post.fail()
				wt.problem("%v", perr)
				continue
			}
			wt.post.add(ms(now().Sub(sent[i])))
		}
		var derr error
		drained, derr = awaitIngested(w, d.base, uint64(ref.ReplayReceipts))
		for deadline := now().Add(alertWait); derr == nil && seen.Load() < int64(len(ref.Alerts)) && now().Before(deadline); {
			time.Sleep(200 * time.Microsecond)
		}
		cancel()
		return struct{}{}, derr
	})
	if err != nil {
		return err
	}
	t.merge(wt)
	elapsed := drained.Sub(sent[0]).Seconds()
	t.receiptsPS.add(float64(ref.ReplayReceipts) / elapsed)
	t.windowsPS.add(float64(ref.WindowsScored) / elapsed)
	for i, a := range got {
		if v, ok := fx.lagOf(a, arrived[i], sent); ok {
			t.lag.add(v)
		} else {
			t.lag.fail()
		}
	}
	if err := verifyAlerts(got, ref.Alerts); err != nil {
		t.problem("%v", err)
	}
	err = verifyDaemon(w, d, fx, t, tr)
	t.endRep()
	return err
}

// verifyDaemon checks a drained daemon exactly against the reference: the
// /metrics counters, every customer's stability through batch queries, and
// a seeded sample through single GETs. It records the daemon's peak RSS.
func verifyDaemon(c *http.Client, d *daemon, fx *fixtureData, t *tally, tr *tracer) error {
	var m metricsDoc
	if err := getJSON(c, d.base+"/metrics", &m); err != nil {
		return err
	}
	if err := verifyCounters(m, fx.ref); err != nil {
		t.problem("%v", err)
	}
	for lo := 0; lo < len(fx.perm); lo += queryBatch {
		ids := fx.perm[lo:min(lo+queryBatch, len(fx.perm))]
		id := tr.begin("client.verify_batch", 0, int64(lo))
		status, raw, err := queryBatchRaw(c, d.base, ids)
		tr.end(id)
		t.attempted++
		var rows []stabilityRow
		if err == nil {
			rows, err = decodeRows(status, raw, len(ids))
		}
		for i := 0; err == nil && i < len(rows); i++ {
			want, _ := fx.stabilityOf(ids[i])
			err = verifyStability(rows[i], want)
		}
		if err != nil {
			t.problem("%v", err)
		}
	}
	for i := 0; i < verifyGets && i < len(fx.perm); i++ {
		cid := fx.perm[len(fx.perm)-1-i]
		id := tr.begin("client.verify_get", 0, int64(cid))
		status, raw, err := queryOne(c, d.base, cid)
		tr.end(id)
		t.attempted++
		var row stabilityRow
		if err == nil {
			row, err = decodeRow(status, raw, cid)
		}
		if err == nil {
			want, _ := fx.stabilityOf(cid)
			err = verifyStability(row, want)
		}
		if err != nil {
			t.problem("%v", err)
		}
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	t.rss.add(rss)
	return nil
}

// mixedRep is one open-loop run: one connection sends the bodies on a
// fixed schedule at mixedRate while the second runs its own fixed schedule
// of batch queries, single GETs and alert polls. Every latency counts from
// its due time.
func mixedRep(o options, fx *fixtureData, t *tally, tr *tracer) (err error) {
	ref := fx.ref
	d, err := startDaemon(o, fx.dir, ref.Origin)
	if err != nil {
		return err
	}
	defer func() {
		if serr := d.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	t.setup.add(d.setup.Seconds())
	w, r := newClient(), newClient()
	defer w.CloseIdleConnections()
	defer r.CloseIdleConnections()

	every := time.Second * postReceipts / mixedRate
	nReads := int(time.Duration(len(fx.bodies)) * every / readEvery)
	start := now().Add(20 * time.Millisecond)
	wsched := schedule{start: start, every: every}
	rsched := schedule{start: start, every: readEvery}
	sent := make([]time.Time, len(fx.bodies))
	var (
		writerDone atomic.Bool
		drained    time.Time
		metricsMid metricsDoc
		wt, rt     = newTally(), newTally()
		got        []wireAlert
		arrived    []time.Time
	)
	_, err = population.Map(2, population.Options{Workers: 2}, func(role int) (struct{}, error) {
		if role == 1 {
			got, arrived = mixedReads(r, d.base, fx, rsched, nReads, &writerDone, rt, tr)
			return struct{}{}, nil
		}
		defer writerDone.Store(true)
		openLoop(wsched, len(fx.bodies), func(i int) error {
			sent[i] = now()
			id := tr.begin("client.post", 0, int64(i+1))
			err := postBody(w, d.base, fx.bodies[i], fx.counts[i])
			tr.end(id)
			wt.attempted++
			if err != nil {
				wt.problem("%v", err)
			}
			return err
		}, &wt.post, &wt.late)
		if err := getJSON(w, d.base+"/metrics", &metricsMid); err != nil {
			return struct{}{}, err
		}
		var derr error
		drained, derr = awaitIngested(w, d.base, uint64(ref.ReplayReceipts))
		return struct{}{}, derr
	})
	if err != nil {
		return err
	}
	t.merge(wt)
	t.merge(rt)
	elapsed := drained.Sub(sent[0]).Seconds()
	t.receiptsPS.add(float64(ref.ReplayReceipts) / elapsed)
	t.windowsPS.add(float64(ref.WindowsScored) / elapsed)
	t.backlog.add(float64(uint64(ref.ReplayReceipts) - metricsMid.ReceiptsIngested))
	for _, name := range []string{"ingest", "stability_batch", "stability"} {
		if v, n := metricsMid.handlerMeanUS(name); n > 0 {
			if t.handlerUS[name] == nil {
				t.handlerUS[name] = &samples{}
			}
			t.handlerUS[name].add(v)
			t.handlerBase[name] += n
		}
	}
	for i, a := range got {
		if v, ok := fx.lagOf(a, arrived[i], sent); ok {
			t.lag.add(v)
		} else {
			t.lag.fail()
		}
	}
	if err := verifyAlerts(got, ref.Alerts); err != nil {
		t.problem("%v", err)
	}
	err = verifyDaemon(w, d, fx, t, tr)
	t.endRep()
	return err
}

// mixedReads runs the read connection's schedule: slot j is a 128-id batch
// query (j%4 == 0), an alert poll (j%4 == 3) or a single GET. Answers
// taken mid-ingestion are checked for structure. After the schedule it
// keeps polling alerts at the same period until the whole stream has
// arrived, and returns it with arrival times.
func mixedReads(c *http.Client, base string, fx *fixtureData, sched schedule, nReads int, writerDone *atomic.Bool, t *tally, tr *tracer) ([]wireAlert, []time.Time) {
	var got []wireAlert
	var arrived []time.Time
	poll := func(j int) {
		id := tr.begin("client.alerts_poll", 0, int64(j))
		page, err := pollAlerts(c, base, uint64(len(got)))
		tr.end(id)
		at := now()
		t.attempted++
		if err != nil {
			t.problem("%v", err)
			return
		}
		for _, a := range page {
			got = append(got, a)
			arrived = append(arrived, at)
		}
	}
	nextBatch, nextGet := 0, 0
	for j := 0; j < nReads; j++ {
		due, _ := sched.wait(j)
		switch j % 4 {
		case 0:
			lo := (nextBatch * queryBatch) % len(fx.perm)
			nextBatch++
			ids := fx.perm[lo:min(lo+queryBatch, len(fx.perm))]
			id := tr.begin("client.batch", 0, int64(j))
			status, raw, err := queryBatchRaw(c, base, ids)
			tr.end(id)
			done := now()
			t.attempted++
			if err == nil {
				err = checkBatchShape(status, raw, ids)
			}
			if err != nil {
				t.problem("%v", err)
				t.batch.fail()
				continue
			}
			t.batch.add(ms(done.Sub(due)))
		case 3:
			poll(j)
		default:
			cid := fx.perm[nextGet%len(fx.perm)]
			nextGet++
			id := tr.begin("client.get", 0, int64(j))
			status, raw, err := queryOne(c, base, cid)
			tr.end(id)
			done := now()
			t.attempted++
			var row stabilityRow
			if err == nil {
				row, err = decodeRow(status, raw, cid)
			}
			if err == nil {
				err = checkRowShape(row, cid)
			}
			if err != nil {
				t.problem("%v", err)
				t.get.fail()
				continue
			}
			t.get.add(ms(done.Sub(due)))
		}
	}
	// The tail of the alert stream: keep the poll cadence until every
	// alert is in, the writer is done, or the wait runs out.
	deadline := now().Add(alertWait)
	for j := nReads; len(got) < len(fx.ref.Alerts) && now().Before(deadline); j++ {
		sched.wait(j)
		if writerDone.Load() || j%4 == 3 {
			poll(j)
		}
	}
	return got, arrived
}

// evalState is what the evaluate workload's set-up produces.
type evalState struct {
	st        *store.Store
	histories []retail.History
	defecting []bool
}

// evalSetup reads the full-feed STB1 snapshot and extracts the labelled
// histories.
func evalSetup(dir string, labels []retail.Label) (*evalState, error) {
	f, err := os.Open(filepath.Join(dir, feedFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := store.ReadBinary(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	hs, def, err := labelledHistories(st, labels)
	if err != nil {
		return nil, err
	}
	return &evalState{st: st, histories: hs, defecting: def}, nil
}

// evaluateRep is one offline evaluation: set-up, then every labelled
// customer scored at every window for each α × span config at Workers =
// NumCPU, with the per-window AUROC. The table and a seeded sample of
// series are checked exactly.
func evaluateRep(fx *fixtureData, labels []retail.Label, t *tally, tr *tracer, rng *rand.Rand) error {
	start := now()
	sid := tr.begin("eval.setup", 0, 0)
	es, err := evalSetup(fx.dir, labels)
	tr.end(sid)
	if err != nil {
		return err
	}
	t.setup.add(now().Sub(start).Seconds())
	cfgs, err := evalConfigs(es.st)
	if err != nil {
		return err
	}
	if len(cfgs) != len(fx.ref.Eval) {
		return fmt.Errorf("evaluate grid has %d configs, reference has %d", len(cfgs), len(fx.ref.Eval))
	}
	receipts := 0
	for _, h := range es.histories {
		receipts += len(h.Receipts)
	}
	var busy time.Duration
	windows := 0
	for ci, c := range cfgs {
		start := now()
		id := tr.begin("eval.config", 0, int64(ci))
		series, err := population.AnalyzeStability(c.model, es.histories, c.grid, c.lastK,
			population.Options{Workers: runtime.NumCPU()})
		var table []aurocCell
		if err == nil {
			table = aurocTable(series, es.defecting, c.lastK)
		}
		tr.end(id)
		busy += now().Sub(start)
		if err != nil {
			return err
		}
		want := fx.ref.Eval[ci]
		t.attempted += len(es.histories)
		n := 0
		for _, s := range series {
			n += s.Len()
		}
		windows += n
		if n != want.Windows || !reflect.DeepEqual(table, want.AUROC) {
			t.problem("evaluate α=%v span=%d: table differs from the Workers=1 reference", c.alpha, c.span)
		}
		if err := checkSeriesSample(c, es.histories, series, rng); err != nil {
			t.problem("evaluate α=%v span=%d: %v", c.alpha, c.span, err)
		}
	}
	t.windowsPS.add(float64(windows) / busy.Seconds())
	t.receiptsPS.add(float64(receipts*len(cfgs)) / busy.Seconds())
	return nil
}

// checkSeriesSample recomputes a seeded sample of customers one at a time
// with core.Model.AnalyzeStability and requires bit-identical series.
func checkSeriesSample(c evalConfig, hs []retail.History, series []core.Series, rng *rand.Rand) error {
	for _, i := range rng.Perm(len(hs))[:min(evalSample, len(hs))] {
		wd, err := window.Windowize(hs[i], c.grid, c.lastK)
		if err != nil {
			return err
		}
		want, err := c.model.AnalyzeStability(wd)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(series[i], want) {
			return fmt.Errorf("customer %d: population series differs from a one-customer run", hs[i].Customer)
		}
	}
	return nil
}
