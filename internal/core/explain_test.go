package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/gautrais/stability/internal/retail"
)

// sameBlame compares two blame lists bit for bit: nil-ness, length, and
// every field, floats by their bit patterns.
func sameBlame(a, b []Blame) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Item != y.Item || x.Net != y.Net ||
			math.Float64bits(x.LogSignificance) != math.Float64bits(y.LogSignificance) ||
			math.Float64bits(x.Share) != math.Float64bits(y.Share) {
			return false
		}
	}
	return true
}

// TestExplainLastMatchesObserve is the lazy == eager differential test: a
// tracker driven by ObserveStability and then ExplainLast (after the fold)
// must reproduce, bit for bit, the Missing list a tracker driven by Observe
// returns for every window. Feeds open with leading empty windows, mix in
// first-seen items and empty windows throughout, and snapshot/restore the
// lazy tracker through STK1 midway. ExplainLast must be nil whenever the
// window was undefined, and before the first observation and after Reset.
func TestExplainLastMatchesObserve(t *testing.T) {
	for _, policy := range []CountPolicy{CountFromFirstSeen, CountFromOrigin} {
		for _, maxBlame := range []int{0, 1, 3} {
			for _, alpha := range []float64{1.5, 2, 3} {
				opts := Options{Alpha: alpha, Policy: policy, MaxBlame: maxBlame}
				t.Run(fmt.Sprintf("policy%d/blame%d/alpha%v", policy, maxBlame, alpha), func(t *testing.T) {
					for seed := int64(0); seed < 6; seed++ {
						checkExplainLast(t, opts, seed)
					}
				})
			}
		}
	}
}

func checkExplainLast(t *testing.T, opts Options, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eager := newTestTracker(t, opts)
	lazy := newTestTracker(t, opts)
	if got := lazy.ExplainLast(basket(1, 2)); got != nil {
		t.Fatalf("seed %d: ExplainLast before any window = %+v, want nil", seed, got)
	}
	universe := 4 + rng.Intn(40)
	windows := 40
	restoreAt := 8 + rng.Intn(20)
	leading := rng.Intn(3)
	sawDefined, sawUndefined, sawNew := false, false, false
	for k := 0; k < windows; k++ {
		if k == restoreAt {
			var buf bytes.Buffer
			if err := lazy.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := ReadTrackerSnapshot(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := restored.ExplainLast(basket()); got != nil {
				t.Fatalf("seed %d: ExplainLast on a restored tracker = %+v, want nil", seed, got)
			}
			lazy = restored
		}
		var b retail.Basket
		switch {
		case k < leading || rng.Intn(7) == 0:
			b = retail.Basket{}
		case rng.Intn(5) == 0:
			// Widen the universe so the window brings first-seen items.
			universe += 1 + rng.Intn(4)
			b = randomBasket(rng, universe)
		default:
			b = randomBasket(rng, universe)
		}
		want := eager.Observe(b)
		got := lazy.ObserveStability(b)
		missing := lazy.ExplainLast(b)
		if got.Stability != want.Stability || got.Defined != want.Defined ||
			got.Drop != want.Drop || got.Counted != want.Counted || got.Seq != want.Seq {
			t.Fatalf("seed %d window %d: scores diverged: lazy %+v eager %+v", seed, k, got, want)
		}
		if !sameBlame(missing, want.Missing) {
			t.Fatalf("seed %d window %d: ExplainLast\n%+v\nObserve.Missing\n%+v", seed, k, missing, want.Missing)
		}
		if again := lazy.ExplainLast(b); !sameBlame(again, missing) {
			t.Fatalf("seed %d window %d: a second ExplainLast differs", seed, k)
		}
		if !want.Defined {
			sawUndefined = true
			if missing != nil {
				t.Fatalf("seed %d window %d: ExplainLast after an undefined window = %+v, want nil", seed, k, missing)
			}
		} else {
			sawDefined = true
		}
		sawNew = sawNew || (want.Defined && len(want.NewItems) > 0)
	}
	if !sawDefined || !sawUndefined || !sawNew {
		t.Fatalf("seed %d: feed missed a case: defined %v undefined %v first-seen %v",
			seed, sawDefined, sawUndefined, sawNew)
	}
	lazy.Reset()
	if got := lazy.ExplainLast(basket()); got != nil {
		t.Fatalf("seed %d: ExplainLast after Reset = %+v, want nil", seed, got)
	}
}
