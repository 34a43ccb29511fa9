package stream

import (
	"bytes"
	"testing"
)

// FuzzReadMonitorSnapshot asserts the SMN1 reader never panics on corrupt
// input, restores only normalized pending baskets, and that whatever it
// accepts re-writes to canonical bytes: the re-written snapshot restores
// the same customers and re-writes to itself. (Literal identity with the
// input does not hold by design: pre-retention records, flags bit 2
// clear, are accepted and re-written in the current layout.) The seeds
// are well-formed snapshots of the shapes the persist tests cover (empty,
// multi-customer with pending baskets, scored and evicting monitors) plus
// a header whose customer count is implausibly large.
func FuzzReadMonitorSnapshot(f *testing.F) {
	cfg := testConfig(f, 0.7)
	empty, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshotOf(f, empty))
	f.Add(snapshotBytes(f))
	evictCfg := cfg
	evictCfg.RetentionWindows = 2
	for _, c := range []Config{cfg, evictCfg} {
		m, err := New(c)
		if err != nil {
			f.Fatal(err)
		}
		feed, _ := attritionFeed(f, 5, 6, 8, 2)
		for _, ev := range feed {
			if _, err := m.Ingest(ev.id, ev.t, ev.items); err != nil {
				f.Fatal(err)
			}
		}
		m.CloseThrough(9)
		f.Add(snapshotOf(f, m))
	}
	// A header claiming 2^34 customers with no records behind it: the
	// reader must fail on the missing records, not pre-size for the claim.
	var huge bytes.Buffer
	sw, err := newSnapshotWriter(&huge, cfg.Grid, 1<<34)
	if err == nil {
		err = sw.flush()
	}
	if err != nil {
		f.Fatal(err)
	}
	f.Add(huge.Bytes())
	f.Add([]byte("SMN1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		m, err := ReadMonitorSnapshot(bytes.NewReader(input), cfg)
		if err != nil {
			return // rejection is fine; panicking is not
		}
		for id, st := range m.states {
			if !st.pending.IsNormalized() {
				t.Fatalf("customer %d restored a non-normalized pending basket %v", id, st.pending)
			}
		}
		out := snapshotOf(t, m)
		again, err := ReadMonitorSnapshot(bytes.NewReader(out), cfg)
		if err != nil {
			t.Fatalf("re-written snapshot does not restore: %v", err)
		}
		if again.Customers() != m.Customers() {
			t.Fatalf("round trip changed the customer count: %d vs %d", again.Customers(), m.Customers())
		}
		if out2 := snapshotOf(t, again); !bytes.Equal(out2, out) {
			t.Fatalf("re-written snapshot is not a fixed point:\n once  %x\n twice %x", out, out2)
		}
	})
}

func snapshotOf(t testing.TB, m *Monitor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteSnapshot(&buf); err != nil {
		t.Fatalf("write snapshot: %v", err)
	}
	return buf.Bytes()
}
