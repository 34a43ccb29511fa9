package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one attritiond child process on a loopback port, with its own
// fresh state copy and journal directory.
type daemon struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	dir    string
	base   string
	// setup runs from process start to the first 200 from /readyz,
	// including the SMN1 restore.
	setup time.Duration
}

// startDaemon boots attritiond with -state (a fresh copy of the warm
// SMN1) and -journal in a fresh directory, every other flag at its
// default, and waits until /readyz answers 200.
func startDaemon(o options, fxDir string, origin time.Time) (*daemon, error) {
	runs := filepath.Join(o.work, "runs")
	if err := os.MkdirAll(runs, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(runs, "daemon-")
	if err != nil {
		return nil, err
	}
	state := filepath.Join(dir, "state.smn")
	if err := copyFile(state, filepath.Join(fxDir, warmFile)); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	logPath := filepath.Join(dir, "daemon.log")
	logf, err := os.Create(logPath)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cmd := exec.CommandContext(ctx, o.daemon,
		"-addr", "127.0.0.1:0",
		"-origin", origin.Format("2006-01"),
		"-state", state,
		"-journal", filepath.Join(dir, "journal.stbj"))
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Stopping is a graceful SIGTERM (drain and persist); a daemon still
	// alive 30s later is killed.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	// Should the benchmark itself die, the kernel kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, cancel: cancel, dir: dir}
	start := now()
	if err := cmd.Start(); err != nil {
		cancel()
		os.RemoveAll(dir)
		return nil, err
	}
	addr, err := waitListening(logPath, cmd.Process.Pid, start)
	if err == nil {
		d.base = "http://" + addr
		err = waitReady(d.base, start)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	d.setup = now().Sub(start)
	return d, nil
}

const bootTimeout = 60 * time.Second

// waitListening polls the daemon log for its "listening on ADDR" line.
func waitListening(logPath string, pid int, start time.Time) (string, error) {
	const marker = "listening on "
	for now().Sub(start) < bootTimeout {
		blob, err := os.ReadFile(logPath)
		if err != nil {
			return "", err
		}
		if i := bytes.Index(blob, []byte(marker)); i >= 0 {
			rest := string(blob[i+len(marker):])
			if j := strings.IndexAny(rest, " \n"); j > 0 {
				return rest[:j], nil
			}
		}
		if exited(pid) {
			return "", fmt.Errorf("attritiond exited during start-up: %s", strings.TrimSpace(string(blob)))
		}
		time.Sleep(200 * time.Microsecond)
	}
	return "", errors.New("attritiond never reported its listen address")
}

// exited reports whether the child pid has exited and awaits reaping.
func exited(pid int) bool {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return true
	}
	// The state letter follows the parenthesised command name.
	i := bytes.LastIndexByte(blob, ')')
	return i < 0 || i+2 >= len(blob) || blob[i+2] == 'Z'
}

// waitReady polls /readyz until it answers 200.
func waitReady(base string, start time.Time) error {
	c := newClient()
	defer c.CloseIdleConnections()
	for now().Sub(start) < bootTimeout {
		resp, err := c.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return errors.New("attritiond never became ready")
}

// peakRSSMB reads VmHWM of the daemon process, in MB.
func (d *daemon) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// vmHWM returns a process's peak resident set size in MB from
// /proc/<pid>/status.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM, waits for the daemon to drain, persist and exit, and
// removes its directory. It reports a non-zero exit.
func (d *daemon) stop() error {
	d.cancel()
	_ = d.cmd.Wait()
	defer os.RemoveAll(d.dir)
	if st := d.cmd.ProcessState; st == nil || st.ExitCode() != 0 {
		log, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
		return fmt.Errorf("attritiond did not exit cleanly: %s", strings.TrimSpace(string(log)))
	}
	return nil
}

// newClient returns a client pinned to one keep-alive connection, so each
// role of a workload is exactly one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// metricsDoc is the part of GET /metrics the benchmark reads.
type metricsDoc struct {
	ReceiptsIngested  uint64 `json:"receipts_ingested"`
	ReceiptsShed      uint64 `json:"receipts_shed"`
	ReceiptsRejected  uint64 `json:"receipts_rejected"`
	ReceiptsStale     uint64 `json:"receipts_stale"`
	IngestErrors      uint64 `json:"ingest_errors"`
	Watermark         int    `json:"watermark"`
	CustomersRetained int    `json:"customers_retained"`
	JournalErrors     uint64 `json:"journal_errors"`
	Endpoints         []struct {
		Endpoint    string `json:"endpoint"`
		Count       uint64 `json:"count"`
		Errors      uint64 `json:"errors"`
		TotalMicros uint64 `json:"total_us"`
	} `json:"endpoints"`
}

// handlerMeanUS returns the server-side mean handler latency of one
// endpoint in microseconds, and its call count.
func (m *metricsDoc) handlerMeanUS(endpoint string) (float64, int) {
	for _, e := range m.Endpoints {
		if e.Endpoint == endpoint && e.Count > 0 {
			return float64(e.TotalMicros) / float64(e.Count), int(e.Count)
		}
	}
	return 0, 0
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// awaitIngested polls /metrics until the daemon has drained want
// receipts, and returns the time it saw them.
func awaitIngested(c *http.Client, base string, want uint64) (time.Time, error) {
	deadline := now().Add(120 * time.Second)
	for now().Before(deadline) {
		var m metricsDoc
		if err := getJSON(c, base+"/metrics", &m); err != nil {
			return time.Time{}, err
		}
		if m.ReceiptsIngested >= want {
			return now(), nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Time{}, fmt.Errorf("daemon never drained %d receipts", want)
}

// runChild runs this benchmark binary as a child process, forwarding its
// output to stderr, and waits for it.
func runChild(exe string, args ...string) error {
	cmd := exec.Command(exe, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	return cmd.Run()
}
