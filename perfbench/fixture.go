package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/gautrais/stability"
	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/eval"
	"github.com/gautrais/stability/internal/population"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/store"
	"github.com/gautrais/stability/internal/stream"
	"github.com/gautrais/stability/internal/window"
)

// The fixture shape. The paper's retailer data is not public, so every
// workload runs on stability.DefaultSampleConfig() data over 24 months.
// Months [0, replayMonth) become the daemon's restored warm state; months
// [replayMonth, months) are replayed to it over HTTP in postReceipts-sized
// bodies.
const (
	fixtureVersion = 1
	shapeCustomers = 4000
	shapeMonths    = 24
	replayMonth    = 12
	postReceipts   = 500
)

// Model settings: the attritiond defaults, passed to the daemon by leaving
// its flags alone.
const (
	modelSpan   = 2
	modelAlpha  = 2.0
	modelBeta   = 0.6
	modelTopJ   = 3
	modelWarmup = 4
)

// evalGrid is the evaluate workload's parameter grid: `attrition evaluate`
// over α × span.
var (
	evalAlphas = []float64{1.5, 2, 3}
	evalSpans  = []int{1, 2}
)

// fixtureKey names a cached fixture by seed and shape.
func fixtureKey(seed int64) string {
	return fmt.Sprintf("v%d-seed%d-c%d-m%d-r%d-p%d", fixtureVersion, seed,
		shapeCustomers, shapeMonths, replayMonth, postReceipts)
}

// Fixture file names inside a fixture directory.
const (
	feedFile   = "feed.stb"   // full 24-month feed, STB1
	labelsFile = "labels.csv" // ground-truth cohorts
	warmFile   = "warm.smn"   // SMN1 of a sequential Monitor over months [0, replayMonth)
	bodiesFile = "bodies.bin" // length-prefixed POST /v1/receipts bodies, time order
	refFile    = "ref.json"   // the sequential reference every run is verified against
)

// reference is what a sequential replay says every run must produce.
type reference struct {
	Key            string    `json:"key"`
	Seed           int64     `json:"seed"`
	Customers      int       `json:"customers"`
	Receipts       int       `json:"receipts"`
	ReplayReceipts int       `json:"replay_receipts"`
	Posts          int       `json:"posts"`
	Origin         time.Time `json:"origin"`
	// Barriers maps each close barrier of the replay to the POST whose
	// receipt fires it.
	Barriers []barrierPost `json:"barriers"`
	// WindowsScored counts the customer-windows the replay closes, from
	// the histories (not from the OnScored hook).
	WindowsScored int `json:"windows_scored"`
	// Alerts is the exact alert stream, in delivery order.
	Alerts []refAlert `json:"alerts"`
	// Stabilities holds every customer's answer, ascending id.
	Stabilities []refStability `json:"stabilities"`
	// Tracked and Watermark are the monitor's final customer count and
	// window watermark.
	Tracked   int `json:"tracked"`
	Watermark int `json:"watermark"`
	// Eval is the Workers=1 evaluate table, one entry per grid config.
	Eval []evalRef `json:"eval"`
}

type barrierPost struct {
	Window int `json:"window"`
	Post   int `json:"post"`
}

type refAlert struct {
	Customer  uint64     `json:"customer"`
	Window    int        `json:"window"`
	Stability float64    `json:"stability"`
	Drop      float64    `json:"drop"`
	Blame     []refBlame `json:"blame"`
}

type refBlame struct {
	Item  uint32  `json:"item"`
	Share float64 `json:"share"`
}

type refStability struct {
	Customer  uint64  `json:"customer"`
	Stability float64 `json:"stability"`
	Window    int     `json:"window"`
	OK        bool    `json:"ok"`
}

type evalRef struct {
	Alpha   float64 `json:"alpha"`
	Span    int     `json:"span"`
	LastK   int     `json:"last_k"`
	Windows int     `json:"windows"`
	// AUROC per window; OK is false where a window has one class only.
	AUROC []aurocCell `json:"auroc"`
}

type aurocCell struct {
	V  float64 `json:"v"`
	OK bool    `json:"ok"`
}

// monitorConfig is the daemon's monitor configuration on grid g.
func monitorConfig(g window.Grid) stream.Config {
	return stream.Config{
		Grid:          g,
		Model:         core.Options{Alpha: modelAlpha},
		Beta:          modelBeta,
		TopJ:          modelTopJ,
		WarmupWindows: modelWarmup,
	}
}

// feedReceipt is one receipt of the time-ordered feed.
type feedReceipt struct {
	Customer uint64    `json:"customer"`
	Time     time.Time `json:"time"`
	Items    []uint32  `json:"items"`
}

// closeRule tracks the daemon's watermark rule (stream.Ingestor.process):
// the first receipt of a month past every month seen closes every window
// ending at or before that month's start.
type closeRule struct {
	grid        window.Grid
	maxMonth    int
	lastClosedK int
}

func newCloseRule(g window.Grid, lastClosedK int) *closeRule {
	return &closeRule{grid: g, maxMonth: math.MinInt / 2, lastClosedK: lastClosedK}
}

// advance returns the window to close before ingesting a receipt at t, or
// -1 when the receipt fires no barrier.
func (c *closeRule) advance(t time.Time) int {
	m := c.grid.MonthIndex(t)
	if m <= c.maxMonth {
		return -1
	}
	c.maxMonth = m
	span := c.grid.Span().Months
	w := m / span
	if m < 0 {
		w = -((-m + span - 1) / span)
	}
	if closeK := w - 1; closeK > c.lastClosedK {
		c.lastClosedK = closeK
		return closeK
	}
	return -1
}

// ensureFixture returns the cached fixture directory for seed, preparing
// it in a child process when it is missing, so the generator's memory
// never counts toward this process's peak RSS.
func ensureFixture(o options) (string, error) {
	dir := filepath.Join(o.work, "fixtures", fixtureKey(o.seed))
	if _, err := os.Stat(filepath.Join(dir, refFile)); err == nil {
		return dir, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	if err := runChild(exe, "-prepare", "-seed", fmt.Sprint(o.seed), "-work", o.work); err != nil {
		return "", fmt.Errorf("prepare fixture: %w", err)
	}
	return dir, nil
}

// prepareFixture generates and writes the fixture for seed under work,
// atomically: a half-written fixture is never visible under its key.
func prepareFixture(work string, seed int64) error {
	final := filepath.Join(work, "fixtures", fixtureKey(seed))
	if _, err := os.Stat(filepath.Join(final, refFile)); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(final), ".prep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := buildFixture(tmp, seed); err != nil {
		return err
	}
	_ = os.RemoveAll(final)
	return os.Rename(tmp, final)
}

func buildFixture(dir string, seed int64) error {
	cfg := stability.DefaultSampleConfig()
	cfg.Seed = seed
	cfg.Customers = shapeCustomers
	cfg.Months = shapeMonths
	ds, err := stability.GenerateSample(cfg)
	if err != nil {
		return err
	}
	var stb bytes.Buffer
	if err := ds.Store.WriteBinary(&stb); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, feedFile), stb.Bytes(), 0o644); err != nil {
		return err
	}
	var lb bytes.Buffer
	if err := store.WriteLabelsCSV(&lb, ds.Truth.Labels()); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, labelsFile), lb.Bytes(), 0o644); err != nil {
		return err
	}
	// Everything below derives from the STB1 round trip, exactly the
	// receipts the workloads read back.
	st, err := store.ReadBinary(bytes.NewReader(stb.Bytes()))
	if err != nil {
		return err
	}
	labels := ds.Truth.Labels()
	ds = nil

	ref := reference{Key: fixtureKey(seed), Seed: seed, Customers: st.NumCustomers(), Receipts: st.NumReceipts()}
	minT, _, ok := st.TimeRange()
	if !ok {
		return errors.New("generated feed is empty")
	}
	grid, err := window.NewGrid(minT, window.Span{Months: modelSpan})
	if err != nil {
		return err
	}
	ref.Origin = grid.Origin()
	feed := sortedFeed(st)

	warm, replay := splitFeed(feed, grid)
	ref.ReplayReceipts = len(replay)
	smn, err := warmState(warm, grid)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, warmFile), smn, 0o644); err != nil {
		return err
	}
	if err := replayReference(&ref, smn, replay, grid, st); err != nil {
		return err
	}
	if err := writeBodies(filepath.Join(dir, bodiesFile), &ref, replay); err != nil {
		return err
	}
	ref.Eval, err = evalReference(st, labels)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(&ref)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, refFile), blob, 0o644)
}

// sortedFeed flattens the store into one time-ordered receipt slice
// (stable across customers in ascending id order).
func sortedFeed(st *store.Store) []feedReceipt {
	var feed []feedReceipt
	st.Each(func(h retail.History) bool {
		for _, r := range h.Receipts {
			items := make([]uint32, len(r.Items))
			for i, it := range r.Items {
				items[i] = uint32(it)
			}
			feed = append(feed, feedReceipt{Customer: uint64(h.Customer), Time: r.Time, Items: items})
		}
		return true
	})
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].Time.Before(feed[j].Time) })
	return feed
}

// splitFeed cuts the feed at the first receipt of replayMonth.
func splitFeed(feed []feedReceipt, g window.Grid) (warm, replay []feedReceipt) {
	cut := sort.Search(len(feed), func(i int) bool { return g.MonthIndex(feed[i].Time) >= replayMonth })
	return feed[:cut], feed[cut:]
}

func basketOf(items []uint32) retail.Basket {
	ids := make([]retail.ItemID, len(items))
	for i, it := range items {
		ids[i] = retail.ItemID(it)
	}
	return retail.NewBasket(ids)
}

// warmState runs a sequential Monitor over the warm months under the
// daemon's close rule and returns its SMN1 snapshot.
func warmState(warm []feedReceipt, g window.Grid) ([]byte, error) {
	mon, err := stream.New(monitorConfig(g))
	if err != nil {
		return nil, err
	}
	rule := newCloseRule(g, -1)
	for _, rc := range warm {
		if k := rule.advance(rc.Time); k >= 0 {
			mon.CloseThrough(k)
		}
		if _, err := mon.Ingest(retail.CustomerID(rc.Customer), rc.Time, basketOf(rc.Items)); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := mon.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restoredRule is the close rule of a daemon restored from mon: barriers
// resume after the snapshot's watermark (stream.NewIngestor).
func restoredRule(g window.Grid, watermark int, ok bool) *closeRule {
	last := -1
	if ok {
		last = watermark - 1
	}
	return newCloseRule(g, last)
}

// replayReference restores the warm snapshot into a sequential Monitor,
// replays the rest of the feed under the daemon's close rule, and records
// the alert stream, every stability, and the final counters.
func replayReference(ref *reference, smn []byte, replay []feedReceipt, g window.Grid, st *store.Store) error {
	mon, err := stream.ReadMonitorSnapshot(bytes.NewReader(smn), monitorConfig(g))
	if err != nil {
		return err
	}
	wm, wmOK := mon.Watermark()
	rule := restoredRule(g, wm, wmOK)
	firstClosed := rule.lastClosedK + 1
	hooked := 0
	mon.OnScored(func(stream.Scored) { hooked++ })
	emit := func(alerts []stream.Alert) {
		for _, a := range alerts {
			ra := refAlert{Customer: uint64(a.Customer), Window: a.GridIndex, Stability: a.Stability, Drop: a.Drop}
			for _, b := range a.Blame {
				ra.Blame = append(ra.Blame, refBlame{Item: uint32(b.Item), Share: b.Share})
			}
			ref.Alerts = append(ref.Alerts, ra)
		}
	}
	for i, rc := range replay {
		if k := rule.advance(rc.Time); k >= 0 {
			ref.Barriers = append(ref.Barriers, barrierPost{Window: k, Post: i / postReceipts})
			// Monitor.CloseThrough returns alerts in customer order, one
			// window per customer at a time; the daemon's sharded merge
			// delivers each barrier sorted by (window, customer).
			alerts := mon.CloseThrough(k)
			sort.SliceStable(alerts, func(i, j int) bool {
				if alerts[i].GridIndex != alerts[j].GridIndex {
					return alerts[i].GridIndex < alerts[j].GridIndex
				}
				return alerts[i].Customer < alerts[j].Customer
			})
			emit(alerts)
		}
		alerts, err := mon.Ingest(retail.CustomerID(rc.Customer), rc.Time, basketOf(rc.Items))
		if err != nil {
			return err
		}
		if len(alerts) > 0 {
			// A time-ordered feed closes every window at a barrier first;
			// an ingest-time alert would be delivered at an unscheduled
			// flush, which an exact comparison cannot pin.
			return fmt.Errorf("fixture invariant: receipt of customer %d at %v raised an ingest-time alert", rc.Customer, rc.Time)
		}
	}
	lastClosed := rule.lastClosedK
	ref.Watermark = lastClosed + 1
	ref.Tracked = mon.Customers()
	for _, id := range st.Customers() {
		v, k, ok := mon.Stability(id)
		ref.Stabilities = append(ref.Stabilities, refStability{Customer: uint64(id), Stability: v, Window: k, OK: ok})
	}
	sort.Slice(ref.Stabilities, func(i, j int) bool { return ref.Stabilities[i].Customer < ref.Stabilities[j].Customer })
	// Count closed customer-windows from the histories: a customer first
	// seen in window f scores every window from max(f, firstClosed)
	// through the last barrier.
	st.Each(func(h retail.History) bool {
		if len(h.Receipts) == 0 {
			return true
		}
		from := g.Index(h.Receipts[0].Time)
		if from < firstClosed {
			from = firstClosed
		}
		if n := lastClosed - from + 1; n > 0 {
			ref.WindowsScored += n
		}
		return true
	})
	if hooked != ref.WindowsScored {
		return fmt.Errorf("fixture invariant: %d windows counted from histories, monitor scored %d", ref.WindowsScored, hooked)
	}
	return nil
}

// writeBodies encodes the replay as postReceipts-receipt POST bodies in
// time order and writes them length-prefixed.
func writeBodies(path string, ref *reference, replay []feedReceipt) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var body bytes.Buffer
	for lo := 0; lo < len(replay); lo += postReceipts {
		hi := min(lo+postReceipts, len(replay))
		chunk := replay[lo:hi]
		body.Reset()
		if err := json.NewEncoder(&body).Encode(struct {
			Receipts []feedReceipt `json:"receipts"`
		}{chunk}); err != nil {
			return err
		}
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(body.Len()))
		if _, err := w.Write(n[:]); err != nil {
			return err
		}
		if _, err := w.Write(body.Bytes()); err != nil {
			return err
		}
		ref.Posts++
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// readBodies loads the pre-encoded POST bodies.
func readBodies(path string) ([][]byte, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for len(blob) > 0 {
		if len(blob) < 4 {
			return nil, errors.New("bodies: truncated length prefix")
		}
		n := int(binary.LittleEndian.Uint32(blob))
		if len(blob) < 4+n {
			return nil, errors.New("bodies: truncated body")
		}
		out = append(out, blob[4:4+n:4+n])
		blob = blob[4+n:]
	}
	return out, nil
}

func readReference(dir string) (*reference, error) {
	blob, err := os.ReadFile(filepath.Join(dir, refFile))
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(blob, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", refFile, err)
	}
	return &ref, nil
}

// labelledHistories returns the histories of labelled customers in
// ascending id order, with their defecting flags.
func labelledHistories(st *store.Store, labels []retail.Label) ([]retail.History, []bool, error) {
	cohort := make(map[retail.CustomerID]retail.Cohort, len(labels))
	for _, l := range labels {
		cohort[l.Customer] = l.Cohort
	}
	ids := st.Customers()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var hs []retail.History
	var def []bool
	for _, id := range ids {
		c, ok := cohort[id]
		if !ok || c == retail.CohortUnknown {
			continue
		}
		h, err := st.History(id)
		if err != nil {
			return nil, nil, err
		}
		hs = append(hs, h)
		def = append(def, c == retail.CohortDefecting)
	}
	return hs, def, nil
}

// evalConfigs enumerates the evaluate grid on the feed's time range.
type evalConfig struct {
	alpha float64
	span  int
	grid  window.Grid
	lastK int
	model *core.Model
}

func evalConfigs(st *store.Store) ([]evalConfig, error) {
	minT, maxT, ok := st.TimeRange()
	if !ok {
		return nil, errors.New("feed is empty")
	}
	var out []evalConfig
	for _, a := range evalAlphas {
		for _, s := range evalSpans {
			g, err := window.NewGrid(minT, window.Span{Months: s})
			if err != nil {
				return nil, err
			}
			m, err := core.New(core.Options{Alpha: a})
			if err != nil {
				return nil, err
			}
			out = append(out, evalConfig{alpha: a, span: s, grid: g, lastK: g.Index(maxT), model: m})
		}
	}
	return out, nil
}

// aurocTable folds series into per-window AUROC exactly as `attrition
// evaluate` does: score 1-stability, an unscored window counts as 1.
func aurocTable(series []core.Series, defecting []bool, lastK int) []aurocCell {
	cells := make([]aurocCell, lastK+1)
	scores := make([]float64, len(series))
	for k := 0; k <= lastK; k++ {
		for i, s := range series {
			v := 1.0
			if x, ok := s.StabilityAt(k); ok {
				v = x
			}
			scores[i] = 1 - v
		}
		if auc, err := eval.AUROC(scores, defecting); err == nil {
			cells[k] = aurocCell{V: auc, OK: true}
		}
	}
	return cells
}

// evalReference computes the Workers=1 evaluate table.
func evalReference(st *store.Store, labels []retail.Label) ([]evalRef, error) {
	hs, def, err := labelledHistories(st, labels)
	if err != nil {
		return nil, err
	}
	cfgs, err := evalConfigs(st)
	if err != nil {
		return nil, err
	}
	var out []evalRef
	for _, c := range cfgs {
		series, err := population.AnalyzeStability(c.model, hs, c.grid, c.lastK, population.Options{Workers: 1})
		if err != nil {
			return nil, err
		}
		n := 0
		for _, s := range series {
			n += s.Len()
		}
		out = append(out, evalRef{Alpha: c.alpha, Span: c.span, LastK: c.lastK, Windows: n, AUROC: aurocTable(series, def, c.lastK)})
	}
	return out, nil
}

// readLabels loads the fixture's label file.
func readLabels(dir string) ([]retail.Label, error) {
	f, err := os.Open(filepath.Join(dir, labelsFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.ReadLabelsCSV(f)
}

// copyFile copies src to dst (a fresh per-run state file).
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
