// Command perfbench is the repository's end-to-end benchmark. It builds a
// seeded fixture, drives the shipped code through one workload, prints
// every metric by name with its unit, and verifies every output exactly
// against a sequential replay of the same fixture.
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 45 --trace 0
//
// Workloads (README.md in this directory gives the rationale and the map
// from each per-layer metric to the end-to-end metric it should move):
//
//	ingest    closed-loop catch-up replay into a durable attritiond child
//	evaluate  the paper's offline AUROC evaluation over the α × span grid
//
// With --trace 0 the last stdout line is a JSON object carrying every
// end-to-end metric. With --trace 1 it carries the per-layer ledger; the
// traced run also drives the open-loop mixed scenario (writes at a fixed
// rate beside scheduled reads) for the read-path diagnostics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string
	work     string
	prepare  bool
}

var workloads = []string{"ingest", "evaluate"}

// minReps is the fewest repetitions a phase makes, however long each
// takes, so every per-repetition figure is a median of at least three.
const minReps = 3

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "fixture seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measurement time; at least three repetitions run regardless")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and prints the per-layer ledger")
	fs.StringVar(&o.daemon, "daemon", "", "attritiond binary built from the checkout")
	fs.StringVar(&o.work, "work", ".bench_build/perfbench", "directory for fixtures and per-run state")
	fs.BoolVar(&o.prepare, "prepare", false, "only prepare the fixture for -seed (used as a child process)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.prepare {
		return o, nil
	}
	known := false
	for _, w := range workloads {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return o, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds must be positive, got %d", o.seconds)
	case o.daemon == "":
		return o, errors.New("-daemon is required (run through run.sh)")
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.prepare {
		return prepareFixture(o.work, o.seed)
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return fmt.Errorf("attritiond binary: %w", err)
	}
	fxDir, err := ensureFixture(o)
	if err != nil {
		return err
	}
	if o.trace == 1 {
		return runTraced(o, fxDir, stdout)
	}
	t := newTally()
	if err := measure(o, fxDir, t); err != nil {
		return err
	}
	ref, err := readReference(fxDir)
	if err != nil {
		return err
	}
	return report(stdout, o, ref, t, endToEnd(t))
}

// ingestMetrics are the end-to-end metrics only a daemon produces.
// BENCHMARK.json asks every run for every end-to-end metric, so an
// evaluate run also makes ingest repetitions and adopts these from them.
var ingestMetrics = []string{"post_p50_ms", "post_p99_ms", "alert_lag_p50_ms", "alert_lag_p99_ms"}

// measure spends o.seconds on the workload's repetitions: all of it on
// ingest repetitions, or a third on the offline evaluation and the rest on
// the ingest probe.
func measure(o options, fxDir string, t *tally) error {
	budget := time.Duration(o.seconds) * time.Second
	// The evaluate workload loads the bodies only after its own phase, so
	// they do not count toward the evaluation's peak RSS.
	fx, err := loadFixture(fxDir, o.seed, o.workload == "ingest")
	if err != nil {
		return err
	}
	if o.workload == "ingest" {
		quietClient()
		if err := boots(o, fx, t); err != nil {
			return err
		}
		return cycle(budget, func() error { return ingestRep(o, fx, t, nil) })
	}
	labels, err := readLabels(fxDir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.seed))
	if err := cycle(budget/3, func() error { return evaluateRep(fx, labels, t, nil, rng) }); err != nil {
		return err
	}
	// The in-process evaluation's peak, read before any daemon runs.
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	t.rss.add(rss)
	if fx, err = loadFixture(fxDir, o.seed, true); err != nil {
		return err
	}
	quietClient()
	probe := newTally()
	if err := cycle(budget*2/3, func() error { return ingestRep(o, fx, probe, nil) }); err != nil {
		return err
	}
	adopt(t, probe, ingestMetrics)
	return nil
}

type repFunc func(options, *fixtureData, *tally, *tracer) error

// boots starts and stops the daemon a few extra times before a daemon
// workload measures: boots alone are cheap, and they make setup_s a median
// of many.
func boots(o options, fx *fixtureData, t *tally) error {
	for i := 0; i < extraBoots; i++ {
		d, err := startDaemon(o, fx.dir, fx.ref.Origin)
		if err != nil {
			return err
		}
		t.setup.add(d.setup.Seconds())
		if err := d.stop(); err != nil {
			return err
		}
	}
	return nil
}

// adopt takes the named latency metrics from a probe's tally. Every
// operation the probe made still counts as attempted, and every failure as
// failed.
func adopt(t, probe *tally, names []string) {
	t.attempted += probe.attempted
	t.failed += probe.failed
	t.problems = append(t.problems, probe.problems...)
	for _, name := range names {
		t.pct[name], t.n[name] = probe.pct[name], probe.n[name]
	}
}

// cycle repeats rep for budget: at least minReps times, then while one
// more run, as long as the last, still fits.
func cycle(budget time.Duration, rep func() error) error {
	start := now()
	var last time.Duration
	for i := 0; ; i++ {
		if i >= minReps && now().Sub(start)+last > budget {
			return nil
		}
		repStart := now()
		if err := rep(); err != nil {
			return err
		}
		last = now().Sub(repStart)
	}
}

// quietClient makes the load generator collect its own heap less often
// while it loads a daemon: the two share the machine, and the load
// generator's collections are not the system under test. The in-process evaluation keeps the
// default, since there the collector is part of what is measured.
func quietClient() { debug.SetGCPercent(400) }

// extraBoots is how many start-stop cycles a daemon workload adds to its
// repetitions' boots before measuring.
const extraBoots = 8

// metric is one reported figure with its base count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// endToEnd derives the end-to-end metrics of a run.
func endToEnd(t *tally) []metric {
	med := func(name, unit string, s samples) metric {
		v, n := s.median()
		return metric{name, v, unit, n, fmt.Sprintf("median of %d", n)}
	}
	out := []metric{
		med("setup_s", "s", t.setup),
		med("receipts_per_s", "receipts/s", t.receiptsPS),
		med("windows_per_s", "windows/s", t.windowsPS),
	}
	for _, name := range ingestMetrics {
		v, reps, n := t.percentile(name)
		out = append(out, metric{name, v, "ms", n, fmt.Sprintf("median over %d repetitions", reps)})
	}
	return append(out, med("rss_peak_mb", "MB", t.rss))
}

// environment is recorded with every result.
func environment(ref *reference) string {
	cpu := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("env: NumCPU=%d GOMAXPROCS=%d go=%s cpu=%q fixture=%s customers=%d receipts=%d replay_receipts=%d posts=%d alerts=%d windows_scored=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, ref.Key,
		ref.Customers, ref.Receipts, ref.ReplayReceipts, ref.Posts, len(ref.Alerts), ref.WindowsScored)
}

// result is the last stdout line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the environment, one line per metric with its base count,
// any verification problems, and the JSON result line.
func report(w io.Writer, o options, ref *reference, t *tally, metrics []metric) error {
	fmt.Fprintln(w, environment(ref))
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%d trace=%d attempted=%d failed=%d\n",
		o.workload, o.seed, o.seconds, o.trace, t.attempted, t.failed)
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricJSON{}}
	for _, m := range metrics {
		v := m.value
		if math.IsInf(v, 1) || math.IsNaN(v) {
			// A failed operation misses every limit; JSON has no infinity.
			v = math.MaxFloat64
			res.Correct = false
		}
		note := ""
		if m.note != "" {
			note = " (" + m.note + ")"
		}
		fmt.Fprintf(w, "%-36s %16.6g %-16s n=%d%s\n", m.name, v, m.unit, m.n, note)
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	for _, p := range t.problems {
		fmt.Fprintln(w, "FAILED:", p)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}
