package main

import (
	"math"
	"strings"
	"testing"
)

func TestQuantileAndBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[100-1-i] = float64(i + 1) // descending: quantile must not rely on order
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50.5}, {0.9, 90.1}, {1, 100}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Fatal("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	// p90 of the minimum window keeps ten samples beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{100, 0.9, 10}, {101, 0.9, 10}, {1000, 0.9, 100}, {100, 0.5, 50}, {1, 0.5, 0}, {0, 0.9, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	if beyond(minWindow, 0.9) < 10 {
		t.Error("the minimum window leaves fewer than ten samples beyond p90")
	}
}

// ticksEvery returns n update stamps, the first warm ones slow.
func ticksEvery(n, slow int) []int64 {
	ticks := make([]int64, n)
	at := int64(0)
	for i := range ticks {
		if i < slow {
			at += 70e6 // cold start: 70 ms per update
		} else {
			at += 30e6
		}
		ticks[i] = at
	}
	return ticks
}

func TestCutWarmupDropsColdStart(t *testing.T) {
	const warm = 20
	w, err := cutWarmup(ticksEvery(warm+150, warm), warm)
	if err != nil {
		t.Fatal(err)
	}
	if w.updates() != 150 || w.warmup != warm {
		t.Fatalf("window of %d updates after a warm-up of %d, want 150 after %d", w.updates(), w.warmup, warm)
	}
	for i, v := range w.intervals {
		if math.Abs(v-0.030) > 1e-12 {
			t.Fatalf("interval %d = %g s: a cold update leaked into the window", i, v)
		}
	}
	if math.Abs(w.seconds-150*0.030) > 1e-9 {
		t.Fatalf("window spans %g s, want %g", w.seconds, 150*0.030)
	}
}

func TestCutWarmupRejectsShortWindows(t *testing.T) {
	if _, err := cutWarmup(ticksEvery(10+minWindow-1, 0), 10); err == nil {
		t.Error("a window under the minimum was accepted")
	}
	if _, err := cutWarmup(ticksEvery(minWindow+1, 0), 0); err == nil {
		t.Error("a warm-up of zero was accepted")
	}
	if _, err := cutWarmup(ticksEvery(10+minWindow, 0), 10); err != nil {
		t.Errorf("a minimum window was rejected: %v", err)
	}
}

func TestPerUpdateNormalisation(t *testing.T) {
	w, err := cutWarmup(ticksEvery(5+200, 5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.perUpdate(1000); got != 5 {
		t.Errorf("perUpdate(1000) over 200 updates = %g, want 5", got)
	}
	// Throughput and mean interval are reciprocal over the same window.
	rate := float64(w.updates()) / w.seconds
	if math.Abs(rate*w.perUpdate(w.seconds)-1) > 1e-12 {
		t.Errorf("updates_per_s %g and mean interval %g disagree", rate, w.perUpdate(w.seconds))
	}
	if ratio(3, 0) != 0 || ratio(3, 2) != 1.5 {
		t.Error("ratio must read 0 on an empty denominator")
	}
}

func TestBudgetIsFixedPerSeconds(t *testing.T) {
	for _, w := range workloads {
		b := w.budget(10)
		if b != w.budget(10) || b-w.warmup < minWindow {
			t.Errorf("%s: budget %d with warm-up %d", w.name, b, w.warmup)
		}
		if w.budget(1)-w.warmup < minWindow {
			t.Errorf("%s: one second leaves a window under %d", w.name, minWindow)
		}
		if w.even && b%2 != 0 {
			t.Errorf("%s: odd budget %d", w.name, b)
		}
	}
}

// fakeRun is a finished run whose output is w.
func fakeRun(w []float64) measured {
	p := newProbe(2, 1, nil)
	p.dispatch(4)
	p.delivered.Add(4)
	return measured{p: p, out: &outcome{final: w, up: 10, down: 10}}
}

func TestDigestCheckFailsOnPerturbedModel(t *testing.T) {
	w := []float64{0.25, -1.5, 3, 1e-9}
	good := fakeRun(w)
	good.out.eval.Loss, good.out.eval.Acc = 2.3, 0.5
	const name, seed, seconds = "test-workload", 7, 10
	pins[pinKey(name, seed, seconds)] = pin{Digest: digest(w), Loss: 2.3}
	defer delete(pins, pinKey(name, seed, seconds))

	var problems []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			problems = append(problems, format)
		}
	}
	checkOutcome(check, name, seed, seconds, good)
	if len(problems) != 0 {
		t.Fatalf("the pinned model failed its check: %v", problems)
	}

	bad := append([]float64(nil), w...)
	bad[2] = math.Nextafter(bad[2], 4) // one ulp
	if digest(bad) == digest(w) {
		t.Fatal("digest missed a one-ulp change")
	}
	perturbed := fakeRun(bad)
	perturbed.out.eval = good.out.eval
	checkOutcome(check, name, seed, seconds, perturbed)
	if len(problems) != 1 || !strings.Contains(problems[0], "pinned") {
		t.Fatalf("perturbed model: problems %v, want one pin mismatch", problems)
	}

	problems = nil
	nan := fakeRun([]float64{math.NaN()})
	nan.out.eval = good.out.eval
	checkOutcome(check, "unpinned", seed, seconds, nan)
	if len(problems) == 0 {
		t.Fatal("a non-finite model passed the output check")
	}
}
