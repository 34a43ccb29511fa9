package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// wireAlert is one alert as the daemon delivers it (API.md AlertOut).
type wireAlert struct {
	Seq       uint64     `json:"seq"`
	Customer  uint64     `json:"customer"`
	Window    int        `json:"window"`
	Stability float64    `json:"stability"`
	Drop      float64    `json:"drop"`
	Blame     []refBlame `json:"blame"`
}

// stabilityRow is one stability answer: a StabilityResponse for a scored
// customer, an ErrorResponse otherwise.
type stabilityRow struct {
	Customer  uint64  `json:"customer"`
	Stability float64 `json:"stability"`
	Window    int     `json:"window"`
	Error     string  `json:"error"`
}

// verifyAlerts requires the delivered stream to equal the sequential
// replay's exactly: sequence numbers 1..n, and every customer, window,
// stability, drop and blamed product bit for bit.
func verifyAlerts(got []wireAlert, want []refAlert) error {
	if len(got) != len(want) {
		return fmt.Errorf("alert stream: daemon delivered %d alerts, sequential replay raised %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Seq != uint64(i)+1 || g.Customer != w.Customer || g.Window != w.Window ||
			g.Stability != w.Stability || g.Drop != w.Drop || !sameBlame(g.Blame, w.Blame) {
			return fmt.Errorf("alert %d: daemon sent seq=%d %+v, replay says %+v", i+1, g.Seq, g, w)
		}
	}
	return nil
}

func sameBlame(a, b []refBlame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyStability compares one answer with the replay's: a scored
// customer must match value and window exactly, an unscored one must come
// back as the not-found error.
func verifyStability(got stabilityRow, want refStability) error {
	if !want.OK {
		if got.Error == "" {
			return fmt.Errorf("customer %d: daemon says %v@%d, replay says unscored", want.Customer, got.Stability, got.Window)
		}
		return nil
	}
	if got.Error != "" || got.Customer != want.Customer || got.Stability != want.Stability || got.Window != want.Window {
		return fmt.Errorf("customer %d: daemon says customer=%d %v@%d %q, replay says %v@%d",
			want.Customer, got.Customer, got.Stability, got.Window, got.Error, want.Stability, want.Window)
	}
	return nil
}

// checkRowShape is the structural check for answers taken while ingestion
// is running, whose values legitimately move: the row must be a score for
// the asked customer or the not-found body.
func checkRowShape(got stabilityRow, id uint64) error {
	if got.Error != "" {
		if !strings.Contains(got.Error, "unknown or not yet scored") {
			return fmt.Errorf("customer %d: unexpected error row %q", id, got.Error)
		}
		return nil
	}
	if got.Customer != id || got.Window < 0 {
		return fmt.Errorf("customer %d: malformed row %+v", id, got)
	}
	return nil
}

// checkBatchShape is checkRowShape for a raw NDJSON batch answer, without
// decoding it: status 200 and one line per id, each a score for that id or
// its not-found body. It keeps the load generator's own CPU cost small
// while ingestion runs.
func checkBatchShape(status int, raw []byte, ids []uint64) error {
	if status != http.StatusOK {
		return fmt.Errorf("POST /v1/stability:batch: status %d", status)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if len(raw) == 0 {
		lines = nil
	}
	if len(lines) != len(ids) {
		return fmt.Errorf("POST /v1/stability:batch: %d rows for %d queries", len(lines), len(ids))
	}
	var score, missing []byte
	for i, line := range lines {
		score = fmt.Appendf(score[:0], `{"customer":%d,"stability":`, ids[i])
		missing = fmt.Appendf(missing[:0], `{"error":"customer %d unknown or not yet scored"}`, ids[i])
		if !bytes.HasPrefix(line, score) && !bytes.Equal(line, missing) {
			return fmt.Errorf("batch row %d for customer %d: malformed %q", i, ids[i], line)
		}
	}
	return nil
}

// verifyCounters checks the /metrics counters against the replay: every
// receipt ingested, none stale, shed or rejected, no pipeline errors, and
// the final watermark and customer count.
func verifyCounters(m metricsDoc, ref *reference) error {
	if m.ReceiptsIngested != uint64(ref.ReplayReceipts) || m.ReceiptsStale != 0 || m.ReceiptsShed != 0 ||
		m.ReceiptsRejected != 0 || m.IngestErrors != 0 || m.JournalErrors != 0 {
		return fmt.Errorf("metrics: ingested=%d stale=%d shed=%d rejected=%d ingest_errors=%d journal_errors=%d, want %d/0/0/0/0/0",
			m.ReceiptsIngested, m.ReceiptsStale, m.ReceiptsShed, m.ReceiptsRejected, m.IngestErrors, m.JournalErrors, ref.ReplayReceipts)
	}
	if m.Watermark != ref.Watermark || m.CustomersRetained != ref.Tracked {
		return fmt.Errorf("metrics: watermark=%d customers=%d, replay says %d/%d",
			m.Watermark, m.CustomersRetained, ref.Watermark, ref.Tracked)
	}
	return nil
}

// batchBody encodes ids as an NDJSON POST /v1/stability:batch body.
func batchBody(ids []uint64) []byte {
	var b bytes.Buffer
	for _, id := range ids {
		fmt.Fprintf(&b, "{\"customer\":%d}\n", id)
	}
	return b.Bytes()
}

// exchange sends one request and reads the whole answer. Callers time
// exactly this call, so decoding and checking the answer stay outside
// every latency.
func exchange(c *http.Client, method, url, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// queryBatch posts one NDJSON batch query.
func queryBatchRaw(c *http.Client, base string, ids []uint64) (int, []byte, error) {
	return exchange(c, http.MethodPost, base+"/v1/stability:batch", "application/x-ndjson", batchBody(ids))
}

// queryOne sends one single-customer stability query.
func queryOne(c *http.Client, base string, id uint64) (int, []byte, error) {
	return exchange(c, http.MethodGet, fmt.Sprintf("%s/v1/customers/%d/stability", base, id), "", nil)
}

// decodeRows parses a batch answer into exactly n rows; a non-200 status
// or a different row count is an error.
func decodeRows(status int, raw []byte, n int) ([]stabilityRow, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/stability:batch: status %d", status)
	}
	rows := make([]stabilityRow, 0, n)
	dec := json.NewDecoder(bytes.NewReader(raw))
	for {
		var r stabilityRow
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("batch row %d: %w", len(rows), err)
		}
		rows = append(rows, r)
	}
	if len(rows) != n {
		return nil, fmt.Errorf("POST /v1/stability:batch: %d rows for %d queries", len(rows), n)
	}
	return rows, nil
}

// decodeRow parses a single-customer answer: 200 carries a score, 404 the
// not-found body, anything else is an error.
func decodeRow(status int, raw []byte, id uint64) (stabilityRow, error) {
	var r stabilityRow
	if status != http.StatusOK && status != http.StatusNotFound {
		return r, fmt.Errorf("GET stability %d: status %d", id, status)
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, err
	}
	if (status == http.StatusNotFound) != (r.Error != "") {
		return r, fmt.Errorf("GET stability %d: status %d with row %+v", id, status, r)
	}
	return r, nil
}

// pollAlerts fetches the alerts after seq after (one page).
func pollAlerts(c *http.Client, base string, after uint64) ([]wireAlert, error) {
	var page struct {
		Alerts []wireAlert `json:"alerts"`
	}
	if err := getJSON(c, fmt.Sprintf("%s/v1/alerts?after=%d&max=100000", base, after), &page); err != nil {
		return nil, err
	}
	return page.Alerts, nil
}
