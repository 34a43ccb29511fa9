package stability

import (
	"io"

	"github.com/gautrais/stability/internal/core"
	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/segments"
	"github.com/gautrais/stability/internal/stream"
	"github.com/gautrais/stability/internal/window"
)

// Streaming monitoring types, re-exported. The monitor ingests receipts
// one at a time, rolls windows over automatically, and emits alerts with
// blamed products whenever a customer's stability crosses the loyalty
// threshold β. It is equivalent (property-tested) to the batch pipeline.
type (
	// MonitorConfig parameterizes a Monitor.
	MonitorConfig = stream.Config
	// Monitor is the online attrition monitor (single-threaded).
	Monitor = stream.Monitor
	// ShardedMonitor is the parallel ingestion engine: customer-hash
	// shards behind one lock, with window-close barriers scored across the
	// shards in parallel. Alerts come back at Flush/CloseThrough barriers
	// in a deterministic order identical for every shard count.
	ShardedMonitor = stream.ShardedMonitor
	// Alert is one detection event with blamed products.
	Alert = stream.Alert
	// ScoredWindow is one closed window's result.
	ScoredWindow = stream.Scored
)

// MonitorOptions tune a sharded monitor's operational knobs. Like
// PopulationOptions, they affect throughput only — never results or
// snapshot bytes.
type MonitorOptions struct {
	// Shards is the number of single-threaded shard monitors the feed is
	// hash-partitioned across, which is also how many goroutines score a
	// window-close barrier; <= 0 means GOMAXPROCS.
	Shards int
}

// NewMonitor validates cfg and returns an empty monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return stream.New(cfg) }

// NewShardedMonitor validates cfg and returns an empty sharded monitor:
//
//	monitor, _ := stability.NewShardedMonitor(cfg, stability.MonitorOptions{Shards: 8})
//	_ = monitor.Ingest(id, t, items)            // safe from many producers
//	alerts, err := monitor.CloseThrough(k)      // barrier: deterministic batch
//
// Every method is safe for concurrent use. Per-customer receipt order is
// preserved, and alerts/snapshots are byte-identical to the
// single-threaded Monitor's for any shard count.
func NewShardedMonitor(cfg MonitorConfig, opts MonitorOptions) (*ShardedMonitor, error) {
	return stream.NewSharded(cfg, opts.Shards)
}

// ReadMonitorSnapshot restores a monitor persisted with
// Monitor.WriteSnapshot or ShardedMonitor.WriteSnapshot (the formats are
// identical). cfg supplies the operational knobs (β, TopJ, warm-up); its
// grid and model options must match the snapshot's.
func ReadMonitorSnapshot(r io.Reader, cfg MonitorConfig) (*Monitor, error) {
	return stream.ReadMonitorSnapshot(r, cfg)
}

// ReadShardedMonitorSnapshot restores any monitor snapshot into a sharded
// monitor. Shard count is an operational knob, not persisted state: a
// snapshot written with S shards restores with any S'.
func ReadShardedMonitorSnapshot(r io.Reader, cfg MonitorConfig, opts MonitorOptions) (*ShardedMonitor, error) {
	return stream.ReadShardedMonitorSnapshot(r, cfg, opts.Shards)
}

// ReadTrackerSnapshot restores a single customer's tracker persisted with
// Tracker.WriteSnapshot.
func ReadTrackerSnapshot(r io.Reader) (*Tracker, error) {
	return core.ReadTrackerSnapshot(r)
}

// Segment-characterization types, re-exported (the paper's future work:
// which products' losses explain defection, population-wide).
type (
	// SegmentStats aggregates one segment's role in population attrition.
	SegmentStats = segments.Stats
	// SegmentReport is the population-level characterization.
	SegmentReport = segments.Report
	// CharacterizeOptions tune the aggregation.
	CharacterizeOptions = segments.Options
)

// DefaultCharacterizeOptions returns the standard aggregation setting.
func DefaultCharacterizeOptions() CharacterizeOptions { return segments.DefaultOptions() }

// Characterize aggregates the model's explanations over a population into
// per-segment attrition statistics (gateway products).
func Characterize(model *core.Model, histories []retail.History, grid window.Grid, through int, opts CharacterizeOptions) (*SegmentReport, error) {
	return segments.Characterize(model, histories, grid, through, opts)
}
