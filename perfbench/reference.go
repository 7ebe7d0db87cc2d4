package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"

	"mtcmos/internal/circuit"
	"mtcmos/internal/spice"
)

// The reference workload runs two fixed sets of transitions, and
// reference.json holds a tight-tolerance delay for every member of
// both, so accuracy is always read against stored numbers and never
// against the engine under test.
//
// Vector encodings: a 3-bit adder vector is a | b<<3 (carry-in low);
// a 2x2 multiplier vector is x | y<<2.

// pair is one input-vector transition, old -> new.
type pair struct{ Old, New uint64 }

// The sets are fixed, and the seed only orders them, because job cost
// varies too much between transitions for a seeded sample to be steady:
// adder transients take 0.1-1.2 s, and the relaxation kernel fails on a
// quarter of the multiplier pairs after 0.3-2.8 s each. Seeded samples
// moved pass_s by 40-80% (multiplier) and job_p50_ms by 28% (adder)
// between seeds.
const (
	// adderStride thins the 3752 ordered adder pairs whose sum changes
	// to 12.
	adderStride = 320
	// multStride thins the 192 ordered multiplier pairs whose product
	// changes to 12.
	multStride = 16
)

func adderSum(v uint64) uint64    { return v&7 + v>>3 }
func multProduct(v uint64) uint64 { return (v & 3) * (v >> 2) }

// everyNth returns the ordered pairs of [0,n)x[0,n) whose logic result
// differs (so some output has an edge to time), keeping every stride-th
// one starting with the first.
func everyNth(n uint64, result func(uint64) uint64, stride int) []pair {
	var out []pair
	k := 0
	for o := uint64(0); o < n; o++ {
		for w := uint64(0); w < n; w++ {
			if result(o) == result(w) {
				continue
			}
			if k%stride == 0 {
				out = append(out, pair{o, w})
			}
			k++
		}
	}
	return out
}

func adderSet() []pair { return everyNth(64, adderSum, adderStride) }
func multGrid() []pair { return everyNth(16, multProduct, multStride) }

// refEntry is the stored tight-tolerance delay of one transition.
type refEntry struct {
	Circuit string  `json:"circuit"` // "adder" or "mult"
	Old     uint64  `json:"old"`
	New     uint64  `json:"new"`
	DelayS  float64 `json:"delay_s"`
	Kernel  string  `json:"kernel"` // transient kernel that produced it
	DTMaxS  float64 `json:"dtmax_s"`
	VTolV   float64 `json:"vtol_v"`
	// Change is the relative delay change between the last two levels;
	// Settled reports that it fell under half a unit of the fourth
	// significant digit (5e-5).
	Change  float64 `json:"change"`
	Settled bool    `json:"settled"`
}

type refFile struct {
	Command string     `json:"command"`
	Method  string     `json:"method"`
	Entries []refEntry `json:"entries"`
}

//go:embed reference.json
var referenceJSON []byte

const refPath = "perfbench/reference.json"

// refKey identifies a stored entry.
type refKey struct {
	circuit string
	p       pair
}

// loadReference parses the stored reference and checks that it covers
// exactly the adder set and the multiplier grid.
func loadReference() (map[refKey]float64, error) {
	var f refFile
	if err := json.Unmarshal(referenceJSON, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", refPath, err)
	}
	ref := make(map[refKey]float64, len(f.Entries))
	for _, e := range f.Entries {
		if !(e.DelayS > 0) {
			return nil, fmt.Errorf("%s: %s %d->%d has no delay", refPath, e.Circuit, e.Old, e.New)
		}
		ref[refKey{e.Circuit, pair{e.Old, e.New}}] = e.DelayS
	}
	want := 0
	for _, c := range []struct {
		name  string
		pairs []pair
	}{{"adder", adderSet()}, {"mult", multGrid()}} {
		for _, p := range c.pairs {
			if _, ok := ref[refKey{c.name, p}]; !ok {
				return nil, fmt.Errorf("%s lacks %s %d->%d; regenerate it", refPath, c.name, p.Old, p.New)
			}
			want++
		}
	}
	if len(ref) != want {
		return nil, fmt.Errorf("%s has %d entries, want %d; regenerate it", refPath, len(ref), want)
	}
	return ref, nil
}

// settleDelay is the worst settling delay over outs: from the input
// edge's midpoint to each output's last Vdd/2 crossing. The switch-level
// Result.MaxDelay measures the same quantity.
func settleDelay(res *spice.RunResult, outs []string) (float64, error) {
	from := res.Stim.TEdge + res.Stim.TRise/2
	worst, found := 0.0, false
	for _, n := range outs {
		tr := res.OutTrace(n)
		if tr == nil {
			return 0, fmt.Errorf("output %s was not recorded", n)
		}
		for at := from; ; {
			tc, ok := tr.Crossing(res.Vdd/2, at, 0)
			if !ok {
				break
			}
			found = true
			worst = math.Max(worst, tc-from)
			at = tc + 1e-13
		}
	}
	if !found {
		return 0, errors.New("no output crossed Vdd/2 after the edge")
	}
	return worst, nil
}

// Tolerance ladder of the stored reference: level k runs with DTMax
// 5ps/2^k and VTol 20uV/4^k (level 0 is the engine default).
const (
	refTStop    = 20e-9
	refMaxLevel = 9
)

// tightDelay shrinks DTMax and VTol level by level until the delay
// stops moving at four significant digits, with the sparse Newton
// kernel or, if that fails at the default level, the relaxation kernel.
// A level that fails after the first ends the ladder unsettled.
func tightDelay(c *circuit.Circuit, stim circuit.Stimulus, outs []string) (refEntry, error) {
	var lastErr error
	for _, k := range []struct {
		name   string
		solver spice.Solver
	}{{"sparse", spice.SolverSparse}, {"relaxation", spice.SolverAuto}} {
		e := refEntry{Kernel: k.name}
		for lvl := 0; lvl <= refMaxLevel; lvl++ {
			o := spice.Options{
				TStop:  refTStop,
				DTMax:  5e-12 / float64(int(1)<<lvl),
				VTol:   20e-6 / float64(int(1)<<(2*lvl)),
				Solver: k.solver,
			}
			res, err := spice.Run(c, stim, spice.RunOptions{Options: o})
			var d float64
			if err == nil {
				d, err = settleDelay(res, outs)
			}
			if err != nil {
				lastErr = err
				break
			}
			if lvl > 0 {
				e.Change = math.Abs(d-e.DelayS) / d
			}
			e.DelayS, e.DTMaxS, e.VTolV = d, o.DTMax, o.VTol
			if lvl > 0 && e.Change < 5e-5 {
				e.Settled = true
				break
			}
		}
		if e.DelayS > 0 {
			return e, nil
		}
	}
	return refEntry{}, lastErr
}

// generateReference recomputes every stored delay on two workers and
// rewrites reference.json. It takes tens of minutes.
func generateReference() error {
	ad, m := referenceCircuits()
	type task struct {
		circuit string
		c       *circuit.Circuit
		outs    []string
		p       pair
		stim    func(pair) circuit.Stimulus
	}
	var tasks []task
	for _, p := range adderSet() {
		tasks = append(tasks, task{"adder", ad.Circuit, outNames(ad.Circuit), p, adderStim(ad)})
	}
	for _, p := range multGrid() {
		tasks = append(tasks, task{"mult", m.Circuit, m.ProductNets, p, multStim(m)})
	}
	entries := make([]refEntry, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t := tasks[i]
				e, err := tightDelay(t.c, t.stim(t.p), t.outs)
				if err != nil {
					errs[i] = fmt.Errorf("%s %d->%d: %w", t.circuit, t.p.Old, t.p.New, err)
					continue
				}
				e.Circuit, e.Old, e.New = t.circuit, t.p.Old, t.p.New
				entries[i] = e
				fmt.Fprintf(os.Stderr, "%s %d->%d %.6g s (%s, dtmax %.3g, change %.2g, settled %v)\n",
					t.circuit, t.p.Old, t.p.New, e.DelayS, e.Kernel, e.DTMaxS, e.Change, e.Settled)
			}
		}()
	}
	for i := range tasks {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	out, err := json.MarshalIndent(refFile{
		Command: "go run ./perfbench -gen-reference",
		Method: fmt.Sprintf("spice.Run to %g s; level k uses DTMax 5ps/2^k and VTol 20uV/4^k, "+
			"k = 0..%d, stopping when two levels agree within 5e-5 relative "+
			"or at the cap or at the first failing level; sparse Newton kernel, "+
			"relaxation if sparse fails at k = 0", refTStop, refMaxLevel),
		Entries: entries,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refPath, append(out, '\n'), 0o644)
}
