package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// runDiff implements `benchjson diff old.json new.json`: it compares two
// reports produced by the default mode, prints per-benchmark ns/op,
// allocs/op, and throughput (scores/sec or receipts/sec) deltas, and
// returns 1 when any benchmark regressed beyond the thresholds — slower,
// more allocations, or lower throughput — so CI can diff bench
// trajectories mechanically instead of eyeballing raw output. Benchmarks
// present in only one report are listed but never count as regressions
// (suites grow and shrink legitimately).
func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threshold = fs.Float64("threshold", 0.25,
			"relative ns/op increase that counts as a regression (0.25 = +25%)")
		allocsThreshold = fs.Float64("allocs-threshold", 0.25,
			"relative allocs/op increase that counts as a regression (with half an alloc of absolute slack, so 0 -> 1 flags but jitter on large counts does not)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchjson diff [flags] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	oldRep, err := loadReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	newRep, err := loadReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	regressions := diffReports(stdout, oldRep, newRep, *threshold, *allocsThreshold)
	if regressions > 0 {
		fmt.Fprintf(stdout, "\n%d regression(s) beyond thresholds (ns/op +%.0f%%, allocs/op +%.0f%%, throughput -%.0f%%)\n",
			regressions, *threshold*100, *allocsThreshold*100, *threshold*100)
		return 1
	}
	fmt.Fprintln(stdout, "\nno regressions beyond thresholds")
	return 0
}

func loadReport(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	// Older baselines predate the derived throughput fields; fill them in
	// from the recorded ns/op + per-op metrics so throughput still diffs.
	for i := range rep.Benchmarks {
		deriveThroughput(&rep.Benchmarks[i])
	}
	return rep, nil
}

// diffReports writes the comparison table and returns the regression count.
func diffReports(w io.Writer, oldRep, newRep Report, threshold, allocsThreshold float64) int {
	oldBy := benchByName(oldRep)
	newBy := benchByName(newRep)

	names := make([]string, 0, len(oldBy))
	var added, removed []string
	//detlint:ignore R1 membership partition only; names and removed are sorted before any output
	for name := range oldBy {
		if _, ok := newBy[name]; ok {
			names = append(names, name)
		} else {
			removed = append(removed, name)
		}
	}
	//detlint:ignore R1 membership partition only; added is sorted before any output
	for name := range newBy {
		if _, ok := oldBy[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(names)
	sort.Strings(added)
	sort.Strings(removed)

	regressions := 0
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\tnew ns/op\tdelta\told allocs\tnew allocs\tdelta\told ops/s\tnew ops/s\tdelta\t")
	for _, name := range names {
		o, n := oldBy[name], newBy[name]
		nsCell, nsRegressed := deltaCell(o.NsPerOp, n.NsPerOp, threshold, 0)
		allocCell, allocRegressed := deltaCell(o.AllocsPerOp, n.AllocsPerOp, allocsThreshold, 0.5)
		thrCell, thrRegressed := throughputCell(throughput(o), throughput(n), threshold)
		// A single-iteration run cannot amortize one-time warmup
		// allocations, so its allocs/op systematically overstates the
		// steady state (a 0-alloc hot path reports its setup alloc).
		// Show the delta but never gate on it when either side ran once.
		if o.Iterations == 1 || n.Iterations == 1 {
			allocRegressed = false
		}
		if nsRegressed || allocRegressed || thrRegressed {
			regressions++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			n.Name, fmtMetric(o.NsPerOp), fmtMetric(n.NsPerOp), nsCell,
			fmtMetric(o.AllocsPerOp), fmtMetric(n.AllocsPerOp), allocCell,
			fmtMetric(throughput(o)), fmtMetric(throughput(n)), thrCell)
	}
	tw.Flush()
	for _, name := range removed {
		fmt.Fprintf(w, "only in old: %s\n", oldBy[name].Name)
	}
	for _, name := range added {
		fmt.Fprintf(w, "only in new: %s\n", newBy[name].Name)
	}
	return regressions
}

// benchByName indexes a report's benchmarks by name without the
// "-GOMAXPROCS" suffix go test appends when GOMAXPROCS > 1, so a report
// recorded on a multi-CPU host pairs up with a 1-CPU baseline instead of
// listing every benchmark as only in one side. Values keep their recorded
// names for printing.
func benchByName(rep Report) map[string]Benchmark {
	suffix := procsSuffix(rep)
	by := make(map[string]Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		by[strings.TrimSuffix(b.Name, suffix)] = b
	}
	return by
}

// procsSuffix returns the "-N" (N >= 2) suffix every benchmark name in the
// report ends with, or "" when they do not all share one. A 1-CPU report
// carries no suffix, and a sub-benchmark's own numeric tail (shards-8,
// batch-128) differs across the suite, so only the GOMAXPROCS tail go test
// appends to every name is ever stripped.
func procsSuffix(rep Report) string {
	suffix := ""
	for i, b := range rep.Benchmarks {
		j := strings.LastIndexByte(b.Name, '-')
		if j < 0 {
			return ""
		}
		if n, err := strconv.Atoi(b.Name[j+1:]); err != nil || n < 2 {
			return ""
		}
		if i == 0 {
			suffix = b.Name[j:]
		} else if b.Name[j:] != suffix {
			return ""
		}
	}
	return suffix
}

// deltaCell renders the relative change between two optional metrics and
// reports whether it regresses beyond threshold. slack is an absolute
// allowance added to the budget (half an alloc keeps integer-count jitter
// honest while still flagging a 0 -> 1 step).
func deltaCell(o, n *float64, threshold, slack float64) (cell string, regressed bool) {
	switch {
	case o == nil || n == nil:
		return "-", false
	case *o == 0 && *n == 0:
		return "+0.0%", false
	case *o == 0:
		return "new>0", *n > slack
	}
	rel := (*n - *o) / *o
	regressed = *n > *o*(1+threshold)+slack
	return fmt.Sprintf("%+.1f%%", rel*100), regressed
}

// throughput picks a benchmark's headline per-second metric: scores/sec
// when the bench scores customers, else receipts/sec when it ingests.
func throughput(b Benchmark) *float64 {
	if b.ScoresPerSec != nil {
		return b.ScoresPerSec
	}
	return b.ReceiptsPerSec
}

// throughputCell renders the relative change of a higher-is-better metric
// and reports whether it dropped beyond threshold.
func throughputCell(o, n *float64, threshold float64) (cell string, regressed bool) {
	if o == nil || n == nil || *o <= 0 {
		return "-", false
	}
	rel := (*n - *o) / *o
	return fmt.Sprintf("%+.1f%%", rel*100), *n < *o*(1-threshold)
}

func fmtMetric(v *float64) string {
	if v == nil {
		return "-"
	}
	if *v == math.Trunc(*v) && math.Abs(*v) < 1e15 {
		return fmt.Sprintf("%.0f", *v)
	}
	return fmt.Sprintf("%.1f", *v)
}
