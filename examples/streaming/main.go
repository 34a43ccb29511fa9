// Streaming: monitor a live receipt feed and react to attrition alerts as
// they fire — the production deployment shape of the stability model. The
// example drives the sharded monitor from a dataset that GROWS while the
// monitor runs: a base horizon is generated and replayed as a
// point-of-sale stream, then the dataset is extended month by month
// (resuming each customer's simulation — the past is never re-simulated)
// and only the appended receipts are fed. The watermark advances at each
// window boundary so silent (defecting!) customers still get scored, and
// each alert prints the products to win the customer back with.
//
// Incremental consumption is lossless: at the end, the monitor state is
// byte-identical to a batch replay of the final dataset through a fresh
// monitor — the example checks the two SMN1 snapshots and says so.
//
//	go run ./examples/streaming
package main

import (
	"bytes"
	"fmt"
	"log"
	"sort"
	"strings"

	"github.com/gautrais/stability"
)

const (
	baseMonths   = 22 // generated up front (attrition onset is month 18)
	extraMonths  = 6  // appended one month at a time while monitoring
	monitorSpan  = 2  // window span in months
	monitorBeta  = 0.6
	monitorShard = 4
)

type event struct {
	id stability.CustomerID
	r  stability.Receipt
}

// feedOf flattens histories into one timestamp-ordered feed (ties keep
// ascending customer order, so the feed is deterministic).
func feedOf(histories []stability.History) []event {
	var feed []event
	for _, h := range histories {
		for _, r := range h.Receipts {
			feed = append(feed, event{h.Customer, r})
		}
	}
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].r.Time.Before(feed[j].r.Time) })
	return feed
}

func main() {
	cfg := stability.DefaultSampleConfig()
	cfg.Customers = 120
	cfg.Seed = 5
	cfg.Months = baseMonths
	ds, err := stability.GenerateSample(cfg)
	if err != nil {
		log.Fatal(err)
	}

	grid, err := stability.NewGrid(cfg.Start, monitorSpan)
	if err != nil {
		log.Fatal(err)
	}
	monitorCfg := stability.MonitorConfig{
		Grid:          grid,
		Model:         stability.DefaultOptions(),
		Beta:          monitorBeta, // alert when stability falls to 0.6 or below
		TopJ:          3,
		WarmupWindows: 4, // no alerts until 8 months of history
	}
	monitor, err := stability.NewShardedMonitor(monitorCfg, stability.MonitorOptions{Shards: monitorShard})
	if err != nil {
		log.Fatal(err)
	}

	alertsTotal := 0
	trueAlerts := 0
	handle := func(alerts []stability.Alert) {
		for _, a := range alerts {
			alertsTotal++
			truth := ds.Truth.ByCustomer[a.Customer]
			verdict := "loyal?!"
			if truth != nil && truth.Label.Cohort == stability.CohortDefecting {
				verdict = "true defector"
				trueAlerts++
			}
			var names []string
			for _, b := range a.Blame {
				names = append(names, ds.Catalog.SegmentName(b.Item))
			}
			if alertsTotal <= 12 { // print the first few, summarize the rest
				fmt.Printf("ALERT %s customer %-4d stability %.2f (%s) win-back: %s\n",
					a.End.Format("2006-01"), a.Customer, a.Stability, verdict, strings.Join(names, ", "))
			}
		}
	}

	live := &replay{monitor: monitor, grid: grid, handle: handle}

	// Phase 1: replay the base horizon as a live feed.
	base, err := ds.Store.DeltaSince(nil)
	if err != nil {
		log.Fatal(err)
	}
	baseFeed := feedOf(base)
	fmt.Printf("replaying %d receipts from %d customers as a live feed across %d shards\n\n",
		len(baseFeed), cfg.Customers, monitor.Shards())
	live.feed(baseFeed)

	// Phase 2: the dataset keeps growing underneath the monitor. Each
	// month, the simulation resumes from its checkpoint (bit-identical to
	// having generated the longer horizon up front) and only the appended
	// receipts — DeltaSince against the previous frozen store — are fed.
	for m := 0; m < extraMonths; m++ {
		prev := ds.Store
		if err := stability.ExtendSample(ds, 1, stability.SampleOptions{}); err != nil {
			log.Fatal(err)
		}
		delta, err := ds.Store.DeltaSince(prev)
		if err != nil {
			log.Fatal(err)
		}
		newFeed := feedOf(delta)
		fmt.Printf("-- month %d appended: %d new receipts\n", ds.Config.Months, len(newFeed))
		live.feed(newFeed)
	}

	// Close every window the final horizon covers.
	finalK := grid.Index(ds.Config.End().AddDate(0, 0, -1))
	incremental := live.finish(finalK)

	// Cross-check: a batch replay of the final store through a fresh
	// monitor must land in exactly the same state.
	batchSnap, batchAlerts := batchReplay(monitorCfg, grid, ds, finalK)
	if !bytes.Equal(incremental, batchSnap) {
		log.Fatal("incremental replay snapshot diverged from batch replay of the final store")
	}
	if alertsTotal != batchAlerts {
		log.Fatalf("alert counts diverged: incremental %d, batch %d", alertsTotal, batchAlerts)
	}
	fmt.Printf("\nincremental replay == batch replay of the final store: true (%d alerts each)\n", alertsTotal)

	if alertsTotal == 0 {
		fmt.Println("no alerts fired")
		return
	}
	fmt.Printf("%d alerts total; %d (%.0f%%) were ground-truth defectors\n",
		alertsTotal, trueAlerts, 100*float64(trueAlerts)/float64(alertsTotal))
}

// replay feeds events to a monitor, advancing the watermark at each window
// boundary: the CloseThrough barrier scores customers silent for a whole
// window (their silence is the signal) and surfaces any ingest error from
// the batch. Every barrier's alerts go to handle.
type replay struct {
	monitor *stability.ShardedMonitor
	grid    stability.Grid
	lastK   int
	handle  func([]stability.Alert)
}

func (r *replay) feed(events []event) {
	for _, ev := range events {
		if k := r.grid.Index(ev.r.Time); k > r.lastK {
			r.closeThrough(k - 1)
			r.lastK = k
		}
		if err := r.monitor.Ingest(ev.id, ev.r.Time, ev.r.Items); err != nil {
			log.Fatal(err)
		}
	}
}

func (r *replay) closeThrough(k int) {
	alerts, err := r.monitor.CloseThrough(k)
	if err != nil {
		log.Fatal(err)
	}
	r.handle(alerts)
}

// finish closes every window through finalK, closes the monitor, and
// returns its snapshot bytes.
func (r *replay) finish(finalK int) []byte {
	r.closeThrough(finalK)
	var snap bytes.Buffer
	if err := r.monitor.WriteSnapshot(&snap); err != nil {
		log.Fatal(err)
	}
	if _, err := r.monitor.Close(); err != nil {
		log.Fatal(err)
	}
	return snap.Bytes()
}

// batchReplay feeds the complete final store through a fresh monitor in
// one pass and returns its snapshot bytes and alert count.
func batchReplay(cfg stability.MonitorConfig, grid stability.Grid, ds *stability.SampleDataset, finalK int) ([]byte, int) {
	monitor, err := stability.NewShardedMonitor(cfg, stability.MonitorOptions{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	all, err := ds.Store.DeltaSince(nil)
	if err != nil {
		log.Fatal(err)
	}
	count := 0
	r := &replay{monitor: monitor, grid: grid, handle: func(alerts []stability.Alert) { count += len(alerts) }}
	r.feed(feedOf(all))
	return r.finish(finalK), count
}
