package main

import (
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"mtcmos/internal/simerr"
)

func TestTransitionSetsChangeTheResult(t *testing.T) {
	for _, c := range []struct {
		name   string
		pairs  []pair
		want   int
		result func(uint64) uint64
	}{
		{"adder", adderSet(), 12, adderSum},
		{"mult", multGrid(), 12, multProduct},
	} {
		if len(c.pairs) != c.want {
			t.Errorf("%s: %d pairs, want %d", c.name, len(c.pairs), c.want)
		}
		for _, p := range c.pairs {
			if c.result(p.Old) == c.result(p.New) {
				t.Errorf("%s %d->%d: no output edge", c.name, p.Old, p.New)
			}
		}
	}
}

func TestStoredReferenceCoversTheSets(t *testing.T) {
	if _, err := loadReference(); err != nil {
		t.Fatal(err)
	}
}

// The reference job list comes from the seed alone and holds every
// transition of both sets, failing ones included, in a seeded order.
func TestReferenceJobListIsSeededAndUnfiltered(t *testing.T) {
	sorted := func(ps []pair) []pair {
		out := append([]pair(nil), ps...)
		sort.Slice(out, func(i, j int) bool {
			return out[i].Old < out[j].Old || out[i].Old == out[j].Old && out[i].New < out[j].New
		})
		return out
	}
	a1, m1 := referencePairs(1)
	a1again, m1again := referencePairs(1)
	if !reflect.DeepEqual(a1, a1again) || !reflect.DeepEqual(m1, m1again) {
		t.Fatal("the same seed gave different job lists")
	}
	if a2, m2 := referencePairs(2); reflect.DeepEqual(a1, a2) && reflect.DeepEqual(m1, m2) {
		t.Error("seeds 1 and 2 gave the same order")
	}
	for seed := int64(0); seed < 20; seed++ {
		adder, mult := referencePairs(seed)
		if !reflect.DeepEqual(sorted(adder), sorted(adderSet())) || !reflect.DeepEqual(sorted(mult), sorted(multGrid())) {
			t.Fatalf("seed %d: the job list is not the whole adder set and multiplier grid", seed)
		}
	}
	jobs, err := referenceSetup(3, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(adderSet()) + len(multGrid()); len(jobs) != want {
		t.Errorf("set-up made %d jobs, want %d", len(jobs), want)
	}
}

// A job that fails counts against ok_pct and its time to fail counts in
// pass_s; only a wrong output clears "correct".
func TestFailuresAreCountedAndTimed(t *testing.T) {
	const slow = 20 * time.Millisecond
	w := workload{name: "fake", passS: 1, setup: func(int64, *tracer) ([]job, error) {
		return []job{
			{"ok", func(*tracer) outcome { return outcome{note: "fine"} }},
			{"no-convergence", func(*tracer) outcome {
				time.Sleep(slow)
				return outcome{err: simerr.New(simerr.ErrNoConvergence, "spice", "stuck")}
			}},
			{"wrong", func(*tracer) outcome { return outcome{check: errors.New("bad output")} }},
		}, nil
	}}
	rep, err := run(w, 1, 1, false, io.Discard, "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 3 || rep.Failed != 2 || rep.Correct {
		t.Errorf("attempted %d failed %d correct %v, want 3 2 false", rep.Attempted, rep.Failed, rep.Correct)
	}
	if got := rep.Metrics["pass_s"].Value; got < slow.Seconds() {
		t.Errorf("pass_s %.4f s omits the failing job's %v", got, slow)
	}
	if got, want := rep.Metrics["ok_pct"].Value, 100.0/3; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("ok_pct %.4f, want %.4f", got, want)
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	w := workload{name: "fake", passS: 1, setup: func(_ int64, tr *tracer) ([]job, error) {
		tr.call("circuits", "build", func() { time.Sleep(time.Millisecond) })
		return []job{{"one", func(tr *tracer) outcome {
			tr.call("sca", "analyze", func() { time.Sleep(time.Millisecond) })
			return outcome{}
		}}}, nil
	}}
	rep, err := run(w, 1, 1, true, io.Discard, filepath.Join(t.TempDir(), "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"runtime.gc_cycles", "trace.overhead_s", "trace.overhead_pct"}
	for _, l := range perLayer {
		names = append(names, l.name)
	}
	for _, n := range names {
		if _, ok := rep.Metrics[n]; !ok {
			t.Errorf("traced run lacks %s", n)
		}
	}
	if rep.Metrics["setup.circuits.build_ms"].Value <= 0 || rep.Metrics["sca.analyze_ms"].Value <= 0 {
		t.Error("traced run did not time the set-up and job spans")
	}
}
