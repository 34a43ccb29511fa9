package stream

import (
	"reflect"
	"sort"
	"testing"

	"github.com/gautrais/stability/internal/core"
)

// TestMonitorLazyBlameMatchesEager pins "score first, explain on alert": a
// plain Monitor scores every window with ObserveStability and builds blame
// only for the windows that alert, while a Monitor with an OnScored hook
// keeps the eager Observe. Both must emit deeply equal alerts — blame
// lists included, every field — under every alert rule (warm-up,
// AlertOnUndefined, retention) and blame cap (MaxBlame, TopJ).
func TestMonitorLazyBlameMatchesEager(t *testing.T) {
	base := testConfig(t, 0.7)
	variants := []func(*Config){
		func(c *Config) {},
		func(c *Config) { c.TopJ = 0 },
		func(c *Config) { c.TopJ, c.Model.MaxBlame = 2, 1 },
		func(c *Config) { c.Model = core.Options{Alpha: 1.5, Policy: core.CountFromOrigin, MaxBlame: 3} },
		func(c *Config) { c.WarmupWindows, c.AlertOnUndefined = 2, true },
		func(c *Config) { c.AlertOnUndefined, c.Beta = true, 0.9 },
		func(c *Config) { c.RetentionWindows = 3 },
	}
	total := 0
	for vi, vary := range variants {
		cfg := base
		vary(&cfg)
		for seed := int64(0); seed < 4; seed++ {
			feed, _ := attritionFeed(t, seed, 25, 12, 3)
			feed = append(feed, randomFeed(t, seed, 6, 60)...)
			sort.SliceStable(feed, func(i, j int) bool { return feed[i].t.Before(feed[j].t) })
			eager, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			scored := 0
			eager.OnScored(func(Scored) { scored++ })
			lazy, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := replayMonitor(t, eager, feed, 14)
			got := replayMonitor(t, lazy, feed, 14)
			if scored == 0 {
				t.Fatalf("variant %d seed %d: the OnScored hook never ran", vi, seed)
			}
			if len(got) != len(want) {
				t.Fatalf("variant %d seed %d: %d barriers, want %d", vi, seed, len(got), len(want))
			}
			for b := range want {
				if !reflect.DeepEqual(got[b], want[b]) {
					t.Fatalf("variant %d seed %d barrier %d: lazy alerts differ from eager:\nlazy  %+v\neager %+v",
						vi, seed, b, got[b], want[b])
				}
				total += len(want[b])
			}
		}
	}
	if total == 0 {
		t.Fatal("no alerts raised; the feeds prove nothing")
	}
	t.Logf("%d alerts compared", total)
}
