package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func f(v float64) *float64 { return &v }

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1000, NsPerOp: f(ns), AllocsPerOp: f(allocs)}
}

func TestDiffNoRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkA-4", 1000, 10),
		bench("BenchmarkGone-4", 5, 0),
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkA-4", 1100, 10), // +10% < default 25% threshold
		bench("BenchmarkNew-4", 7, 1),
	}})
	var out, errOut bytes.Buffer
	if code := runDiff([]string{oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr = %s, stdout = %s", code, errOut.String(), out.String())
	}
	got := out.String()
	for _, want := range []string{"BenchmarkA-4", "+10.0%", "only in old: BenchmarkGone-4",
		"only in new: BenchmarkNew-4", "no regressions"} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
}

func TestDiffFlagsTimeRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkA-4", 1000, 10),
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkA-4", 1500, 10), // +50% > default threshold
	}})
	var out, errOut bytes.Buffer
	if code := runDiff([]string{oldPath, newPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1; stdout = %s", code, out.String())
	}
	if !strings.Contains(out.String(), "1 regression(s)") {
		t.Errorf("missing regression summary:\n%s", out.String())
	}
	// A generous threshold turns the same delta informational.
	out.Reset()
	if code := runDiff([]string{"-threshold", "1.0", oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit code with -threshold 1.0 = %d, stdout = %s", code, out.String())
	}
}

func TestDiffFlagsAllocRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkZeroAlloc-4", 100, 0),
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkZeroAlloc-4", 100, 1), // 0 -> 1 alloc must flag
	}})
	var out, errOut bytes.Buffer
	if code := runDiff([]string{oldPath, newPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1; stdout = %s", code, out.String())
	}
}

func TestDiffSingleIterationAllocsAreInformational(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkZeroAlloc-4", Iterations: 500000, NsPerOp: f(100), AllocsPerOp: f(0)},
	}})
	// A 1x smoke run reports the unamortized warmup alloc; that must not
	// gate, only show.
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkZeroAlloc-4", Iterations: 1, NsPerOp: f(100), AllocsPerOp: f(1)},
	}})
	var out, errOut bytes.Buffer
	if code := runDiff([]string{oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, want 0 (single-iteration allocs are informational); stdout = %s",
			code, out.String())
	}
	if !strings.Contains(out.String(), "new>0") {
		t.Errorf("delta cell should still show the alloc step:\n%s", out.String())
	}
}

// TestDiffFlagsThroughputRegression pins the higher-is-better gate: a
// scores/sec drop beyond the threshold fails the diff even when ns/op and
// allocs look fine, and baselines that predate the derived fields get
// them re-derived from ns/op + metrics on load.
func TestDiffFlagsThroughputRegression(t *testing.T) {
	dir := t.TempDir()
	// Old report as an older benchjson wrote it: scores/op metric only,
	// no derived field. 128 scores / 100µs = 1.28M scores/sec.
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkServeQuery/batch-128-4", Iterations: 1000, NsPerOp: f(100_000),
			Metrics: map[string]float64{"scores/op": 128}},
	}})
	// Same ns/op threshold would not fire (+10%), but throughput halves
	// because the new run scored fewer customers per op.
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkServeQuery/batch-128-4", Iterations: 1000, NsPerOp: f(110_000),
			Metrics: map[string]float64{"scores/op": 64}},
	}})
	var out, errOut bytes.Buffer
	if code := runDiff([]string{oldPath, newPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1; stdout = %s", code, out.String())
	}
	if !strings.Contains(out.String(), "1 regression(s)") {
		t.Errorf("missing regression summary:\n%s", out.String())
	}
	// A faster new run (higher scores/sec) must pass and show the gain.
	fastPath := writeReport(t, dir, "fast.json", Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkServeQuery/batch-128-4", Iterations: 1000, NsPerOp: f(50_000),
			Metrics: map[string]float64{"scores/op": 128}},
	}})
	out.Reset()
	if code := runDiff([]string{oldPath, fastPath}, &out, &errOut); code != 0 {
		t.Fatalf("faster run flagged: exit %d, stdout = %s", code, out.String())
	}
	if !strings.Contains(out.String(), "+100.0%") {
		t.Errorf("throughput gain not shown:\n%s", out.String())
	}
}

func TestDiffMissingMetricIsNotARegression(t *testing.T) {
	dir := t.TempDir()
	// No -benchmem: allocs absent on both sides.
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-4", Iterations: 1000, NsPerOp: f(100)},
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		{Name: "BenchmarkA-4", Iterations: 1000, NsPerOp: f(100)},
	}})
	var out, errOut bytes.Buffer
	if code := runDiff([]string{oldPath, newPath}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stdout = %s", code, out.String())
	}
}

func TestDiffUsageErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := runDiff([]string{"only-one.json"}, &out, &errOut); code != 2 {
		t.Fatalf("one arg: exit code = %d", code)
	}
	if code := runDiff([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out, &errOut); code != 2 {
		t.Fatalf("missing files: exit code = %d", code)
	}
}

// TestDiffPairsAcrossGOMAXPROCS: go test appends "-N" to every bench name
// when GOMAXPROCS = N > 1, so a report from a 2-CPU host must still pair
// with a 1-CPU baseline (and a sub-benchmark's own numeric tail, such as
// shards-8, must not be mistaken for that suffix).
func TestDiffPairsAcrossGOMAXPROCS(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkMonitorIngest/single", 1000, 10),
		bench("BenchmarkMonitorIngest/shards-8", 1000, 10),
	}})
	newPath := writeReport(t, dir, "new.json", Report{Benchmarks: []Benchmark{
		bench("BenchmarkMonitorIngest/single-2", 500, 2),
		bench("BenchmarkMonitorIngest/shards-8-2", 2000, 10),
	}})
	var out, errOut bytes.Buffer
	if code := runDiff([]string{oldPath, newPath}, &out, &errOut); code != 1 {
		t.Fatalf("exit code = %d, want 1 (shards-8 doubled); stdout = %s", code, out.String())
	}
	got := out.String()
	if strings.Contains(got, "only in") {
		t.Errorf("benchmarks left unpaired across GOMAXPROCS:\n%s", got)
	}
	for _, want := range []string{"BenchmarkMonitorIngest/single-2", "-50.0%", "BenchmarkMonitorIngest/shards-8-2", "+100.0%"} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output missing %q:\n%s", want, got)
		}
	}
}
