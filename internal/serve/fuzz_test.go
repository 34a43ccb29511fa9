package serve

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeIngest asserts the POST /v1/receipts decoder never panics,
// that an accepted body respects maxBatch (0 = unlimited), that a body
// rejected as too large is one the unlimited decoder accepts with more
// than maxBatch receipts, and that every accepted receipt converts to a
// normalized stream event.
func FuzzDecodeIngest(f *testing.F) {
	one := `{"customer":42,"time":"2012-05-03T09:00:00Z","items":[3,1,2,1]}`
	f.Add([]byte(`{"receipts":[`+one+`]}`), uint8(4))
	f.Add([]byte(`{"receipts":[`+one+`,`+one+`,`+one+`]}`), uint8(2))
	f.Add([]byte(`{"receipts":[]}`), uint8(0))
	f.Add([]byte(`{"receipts":null}`), uint8(1))
	f.Add([]byte(`{"receipts":[{"customer":-1}]}`), uint8(1))
	f.Add([]byte(`{"receipts":[{"time":"not a time"}]}`), uint8(1))
	f.Add([]byte(`{`), uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, body []byte, maxBatch uint8) {
		req, err := decodeIngest(bytes.NewReader(body), int(maxBatch))
		if err != nil {
			if req != nil {
				t.Fatalf("rejected body returned a request: %v", err)
			}
			if errors.Is(err, ErrBatchTooLarge) {
				all, err := decodeIngest(bytes.NewReader(body), 0)
				if err != nil || len(all.Receipts) <= int(maxBatch) {
					t.Fatalf("too-large rejection at %d, but unlimited decode gives %v", maxBatch, err)
				}
			}
			return
		}
		if maxBatch > 0 && len(req.Receipts) > int(maxBatch) {
			t.Fatalf("accepted %d receipts past maxBatch %d", len(req.Receipts), maxBatch)
		}
		for i, ev := range toEvents(req.Receipts) {
			if !ev.Items.IsNormalized() {
				t.Fatalf("receipt %d converted to a non-normalized basket %v", i, ev.Items)
			}
		}
	})
}

// FuzzDecodeBatchQueries asserts the POST /v1/stability:batch decoder
// never panics, that an accepted body respects maxBatch (0 = unlimited),
// and that an accepted body decodes to the same ids without a limit.
func FuzzDecodeBatchQueries(f *testing.F) {
	f.Add([]byte("{\"customer\":1}\n{\"customer\":2}\n"), uint8(4))
	f.Add([]byte("{\"customer\":1}\n{\"customer\":2}\n{\"customer\":3}\n"), uint8(2))
	f.Add([]byte(`{"customer":1} {"customer":18446744073709551615}`), uint8(0))
	f.Add([]byte("{\"customer\":1}\nnot json\n"), uint8(4))
	f.Add([]byte("{\"customer\":-5}\n"), uint8(1))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, maxBatch uint8) {
		ids, err := decodeBatchQueries(bytes.NewReader(body), int(maxBatch))
		if err != nil {
			if ids != nil {
				t.Fatalf("rejected body returned %d ids: %v", len(ids), err)
			}
			return
		}
		if maxBatch > 0 && len(ids) > int(maxBatch) {
			t.Fatalf("accepted %d queries past maxBatch %d", len(ids), maxBatch)
		}
		all, err := decodeBatchQueries(bytes.NewReader(body), 0)
		if err != nil || !reflect.DeepEqual(all, ids) {
			t.Fatalf("unlimited decode of an accepted body: %v, ids %v vs %v", err, all, ids)
		}
	})
}
