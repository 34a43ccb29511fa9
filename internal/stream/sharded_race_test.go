package stream

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/gautrais/stability/internal/retail"
)

// TestShardedReadersDuringIngest drives one producer that ingests a feed
// and fires a CloseThrough barrier at every window boundary, while reader
// goroutines hammer every read-only accessor. The readers must never see a
// torn state — every snapshot restores, the watermark and customer count
// never move backwards — and the producer's alert batches and final
// snapshot bytes must equal the sequential Monitor's at every shard count.
// Run with -race.
func TestShardedReadersDuringIngest(t *testing.T) {
	cfg := testConfig(t, 0.7)
	cfg.WarmupWindows = 2
	const lastK = 70
	feed := randomFeed(t, 11, 24, 1500)
	wantBatches, single := replaySingle(t, cfg, feed, lastK)
	alerts := 0
	for _, b := range wantBatches {
		alerts += len(b)
	}
	if alerts == 0 {
		t.Fatal("reference raised no alerts; the differential is vacuous")
	}
	var wantSnap bytes.Buffer
	if err := single.WriteSnapshot(&wantSnap); err != nil {
		t.Fatal(err)
	}
	ids := make([]retail.CustomerID, 0, 48)
	for _, ev := range feed {
		ids = append(ids, ev.id, ev.id+1) // ev.id+1 is never fed
		if len(ids) == cap(ids) {
			break
		}
	}

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := NewSharded(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			var wg sync.WaitGroup
			read := func(name string, fn func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						if err := fn(); err != nil {
							t.Errorf("%s: %v", name, err)
							return
						}
					}
				}()
			}
			read("Stability", func() error {
				for _, id := range ids {
					if _, k, ok := s.Stability(id); ok && k < 0 {
						return fmt.Errorf("customer %d scored at window %d", id, k)
					}
				}
				return nil
			})
			var dst []CustomerStability
			read("Stabilities", func() error {
				dst = s.Stabilities(ids, dst)
				for i, row := range dst {
					if row.Customer != ids[i] {
						return fmt.Errorf("row %d is customer %d, want %d", i, row.Customer, ids[i])
					}
				}
				return nil
			})
			lastCustomers, lastWM := 0, 0
			read("Customers+Watermark", func() error {
				n := s.Customers()
				if n < lastCustomers {
					return fmt.Errorf("customers fell from %d to %d", lastCustomers, n)
				}
				lastCustomers = n
				if k, ok := s.Watermark(); ok {
					if k < lastWM {
						return fmt.Errorf("watermark fell from %d to %d", lastWM, k)
					}
					lastWM = k
				}
				return nil
			})
			read("WriteSnapshot", func() error {
				var buf bytes.Buffer
				if err := s.WriteSnapshot(&buf); err != nil {
					return err
				}
				_, err := ReadMonitorSnapshot(&buf, cfg)
				return err
			})

			var got [][]Alert
			prevK := 0
			for _, ev := range feed {
				if k := cfg.Grid.Index(ev.t); k > prevK {
					a, err := s.CloseThrough(k - 1)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, a)
					prevK = k
				}
				if err := s.Ingest(ev.id, ev.t, ev.items); err != nil {
					t.Fatal(err)
				}
			}
			a, err := s.CloseThrough(lastK)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, a)
			close(done)
			wg.Wait()

			if len(got) != len(wantBatches) {
				t.Fatalf("%d alert batches, want %d", len(got), len(wantBatches))
			}
			for i := range wantBatches {
				if !alertsEqual(wantBatches[i], got[i]) {
					t.Fatalf("alert batch %d differs from the sequential Monitor's", i)
				}
			}
			var gotSnap bytes.Buffer
			if err := s.WriteSnapshot(&gotSnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantSnap.Bytes(), gotSnap.Bytes()) {
				t.Fatal("snapshot bytes differ from the sequential Monitor's")
			}
			if _, err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
