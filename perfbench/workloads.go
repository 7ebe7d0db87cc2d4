package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/netlist"
	"mtcmos/internal/sca"
	"mtcmos/internal/simerr"
	"mtcmos/internal/sizing"
	"mtcmos/internal/spice"
)

// job is one call sequence into the program. run returns what the
// program returned and whether its output passed the job's check.
type job struct {
	label string
	run   func(tr *tracer) outcome
}

type outcome struct {
	err   error  // error the program returned
	check error  // output check failure
	note  string // deterministic result summary, printed per job
}

// workload is one benchmark workload: setup builds everything the jobs
// need from the seed alone and returns the fixed job list.
type workload struct {
	name string
	// passS is the nominal length of one pass on a 2-CPU host; a run
	// makes --seconds/passS passes over the job list.
	passS float64
	setup func(seed int64, tr *tracer) ([]job, error)
}

var workloads = []workload{
	{"sizing", 6, sizingSetup},
	{"reference", 10, referenceSetup},
	{"prove", 1.5, proveSetup},
}

// ---- sizing: delay-target sizing of the 8x8 multiplier (VBS + bisection).

const (
	sizingJobs   = 24
	sizingRandom = 8    // seeded transitions per job, after vectors A and B
	sizingTarget = 0.05 // the paper's 5% delay budget
)

func sizingSetup(seed int64, tr *tracer) ([]job, error) {
	var m *circuits.Multiplier
	tr.call("circuits", "build", func() {
		tech := mosfet.Tech03()
		m = circuits.CarrySaveMultiplier(&tech, 8, 15e-15)
	})
	hi := 64 * sizing.SumOfWidths(m.Circuit)
	cfg := sizing.Config{Outputs: m.ProductNets, Workers: 1}
	rng := rand.New(rand.NewSource(seed))
	const mask, y = 0xff, 0x81
	jobs := make([]job, sizingJobs)
	for j := range jobs {
		// The same request as mtsize -circuit mult -estimate delay.
		trs := []sizing.Transition{
			{Old: m.Inputs(0, 0), New: m.Inputs(mask, y), Label: "A"},
			{Old: m.Inputs(mask>>1, y), New: m.Inputs(mask, y), Label: "B"},
		}
		for i := 0; i < sizingRandom; i++ {
			trs = append(trs, sizing.Transition{
				Old: m.Inputs(rng.Uint64()&mask, rng.Uint64()&mask),
				New: m.Inputs(rng.Uint64()&mask, rng.Uint64()&mask),
			})
		}
		jobs[j] = job{fmt.Sprintf("mult8 delay-target #%02d", j), func(tr *tracer) outcome {
			var res *sizing.DelayTargetResult
			var err error
			tr.call("sizing", "delay_target", func() {
				res, err = sizing.DelayTarget(m.Circuit, cfg, trs, sizingTarget, hi)
			})
			if err != nil {
				return outcome{err: err}
			}
			tr.add("sizing.sim_evals", float64(res.Evals))
			tr.add("core.runs", float64(res.Evals*len(trs)))
			o := outcome{note: fmt.Sprintf("wl=%.6g degradation=%.6f evals=%d", res.WL, res.Degradation, res.Evals)}
			if res.Degraded || !(res.Degradation <= sizingTarget) {
				o.check = fmt.Errorf("degradation %.4g at W/L %.4g exceeds the %.0f%% target (degraded=%v)",
					res.Degradation, res.WL, 100*sizingTarget, res.Degraded)
			}
			return o
		}}
	}
	return jobs, nil
}

// ---- reference: transistor-level delay of the 3-bit adder and 2x2 multiplier.

const (
	// refEvalGuard bounds each transient's device evaluations so a run
	// that never finishes still ends, as a typed budget failure. No run
	// of the workload's transitions comes within a factor of four of it.
	refEvalGuard = 200_000_000
)

func referenceCircuits() (*circuits.Adder, *circuits.Multiplier) {
	t07, t03 := mosfet.Tech07(), mosfet.Tech03()
	ad := circuits.RippleCarryAdder(&t07, 3, 20e-15)
	ad.SleepWL = 10
	m := circuits.CarrySaveMultiplier(&t03, 2, 15e-15)
	m.SleepWL = 20
	return ad, m
}

func edge(oldV, newV map[string]bool) circuit.Stimulus {
	return circuit.Stimulus{Old: oldV, New: newV, TEdge: 1e-9, TRise: 50e-12}
}

func adderStim(ad *circuits.Adder) func(pair) circuit.Stimulus {
	return func(p pair) circuit.Stimulus {
		return edge(ad.Inputs(p.Old&7, p.Old>>3, false), ad.Inputs(p.New&7, p.New>>3, false))
	}
}

func multStim(m *circuits.Multiplier) func(pair) circuit.Stimulus {
	return func(p pair) circuit.Stimulus {
		return edge(m.Inputs(p.Old&3, p.Old>>2), m.Inputs(p.New&3, p.New>>2))
	}
}

func outNames(c *circuit.Circuit) []string {
	var out []string
	for _, n := range c.Outputs() {
		out = append(out, n.Name)
	}
	return out
}

// referencePairs is the seed's job list: the adder set and the
// multiplier grid, each whole, in a seeded order. It never looks at how
// a transition simulates, so failing transitions stay in.
func referencePairs(seed int64) (adder, mult []pair) {
	rng := rand.New(rand.NewSource(seed))
	shuffled := func(ps []pair) []pair {
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		return ps
	}
	return shuffled(adderSet()), shuffled(multGrid())
}

func referenceSetup(seed int64, tr *tracer) ([]job, error) {
	var ad *circuits.Adder
	var m *circuits.Multiplier
	tr.call("circuits", "build", func() { ad, m = referenceCircuits() })
	var ref map[refKey]float64
	var err error
	tr.call("reference", "load", func() { ref, err = loadReference() })
	if err != nil {
		return nil, err
	}
	adPairs, mPairs := referencePairs(seed)
	newJob := func(name string, c *circuit.Circuit, outs []string, p pair, stim circuit.Stimulus) (job, error) {
		want, err := c.Evaluate(stim.New)
		if err != nil {
			return job{}, err
		}
		r := ref[refKey{name, p}]
		return job{fmt.Sprintf("%s %d->%d", name, p.Old, p.New), func(tr *tracer) outcome {
			return referenceJob(tr, c, outs, stim, want, r)
		}}, nil
	}
	var jobs []job
	for i := 0; i < len(adPairs) || i < len(mPairs); i++ {
		if i < len(adPairs) {
			j, err := newJob("adder", ad.Circuit, outNames(ad.Circuit), adPairs[i], adderStim(ad)(adPairs[i]))
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
		if i < len(mPairs) {
			j, err := newJob("mult", m.Circuit, m.ProductNets, mPairs[i], multStim(m)(mPairs[i]))
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// referenceJob runs the switch-level and transistor-level engines on one
// transition with their default options, checks that both settle to the
// logic value of the new vector, and scores both delays against the
// stored reference.
func referenceJob(tr *tracer, c *circuit.Circuit, outs []string, stim circuit.Stimulus, want map[string]bool, ref float64) outcome {
	var o outcome
	var checks []error
	wrong := func(engine string, got func(string) bool) {
		for _, n := range outs {
			if got(n) != want[n] {
				checks = append(checks, fmt.Errorf("%s output %s settled to %v, logic says %v", engine, n, got(n), want[n]))
			}
		}
	}

	var vr *core.Result
	var verr error
	tr.call("core", "simulate", func() { vr, verr = core.Simulate(c, stim, core.Options{}) })
	vbs := "fail"
	if verr == nil {
		wrong("vbs", func(n string) bool { return vr.Final[n] })
		if d, _, ok := vr.MaxDelay(outs); ok {
			tr.add("core.vbs_err_sum", 100*math.Abs(d-ref)/ref)
			tr.add("core.vbs_n", 1)
			vbs = fmt.Sprintf("%.5g", d)
		} else {
			checks = append(checks, errors.New("vbs: no output toggled"))
		}
	}

	if tr.on {
		// spice.Run expands and flattens internally; these calls measure
		// those two layers on the same stimulus.
		var nl *netlist.Netlist
		var err error
		tr.probeCall("circuit", "expand", func() { nl, err = c.Netlist(stim) })
		if err == nil {
			tr.probeCall("netlist", "flatten", func() { _, err = nl.Flatten() })
		}
		if err != nil {
			return outcome{err: err}
		}
	}
	var res *spice.RunResult
	var err error
	start := time.Now()
	tr.call("spice", "run", func() {
		res, err = spice.Run(c, stim, spice.RunOptions{Options: spice.Options{TStop: refTStop, MaxEvals: refEvalGuard}})
	})
	took := time.Since(start)
	tr.add("spice.runs", 1)
	evals := 0
	if res != nil {
		evals = res.Evals
		tr.add("spice.steps", float64(res.Steps))
		tr.add("spice.sweeps", float64(res.Sweeps))
		tr.add("spice.evals", float64(evals))
		tr.add("spice.rescued", float64(res.Recovery.Rescued))
		tr.add("spice.backoffs", float64(res.Recovery.Backoffs))
	}
	sp := "fail(" + simerr.KindName(err) + ")"
	if err != nil {
		tr.add("spice.fail_ms", float64(took)/1e6)
	} else {
		tr.add("spice.ok", 1)
		wrong("spice", func(n string) bool { return res.OutTrace(n).Final() > res.Vdd/2 })
		if d, derr := settleDelay(res, outs); derr == nil {
			tr.add("spice.ref_err_sum", 100*math.Abs(d-ref)/ref)
			tr.add("spice.ref_n", 1)
			sp = fmt.Sprintf("%.5g", d)
		} else {
			checks = append(checks, fmt.Errorf("spice: %w", derr))
		}
	}
	o.note = fmt.Sprintf("spice=%s vbs=%s ref=%.5g evals=%d", sp, vbs, ref, evals)
	o.err = errors.Join(err, verr)
	o.check = errors.Join(checks...)
	return o
}

// ---- prove: static analysis, SAT proofs and exclusion refinement of decks.

const proveRounds = 3

// deckGlob names the parsed example decks, relative to the checkout.
const deckGlob = "examples/decks/*.sp"

func proveSetup(seed int64, tr *tracer) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	type deck struct {
		name string
		flat *netlist.Flat
	}
	var decks []deck
	var cs []*circuit.Circuit
	tr.call("circuits", "build", func() {
		t07, t03 := mosfet.Tech07(), mosfet.Tech03()
		cs = []*circuit.Circuit{
			circuits.RippleCarryAdder(&t07, 3, 20e-15).Circuit,
			circuits.SelectTree(&t07, 8, 20e-15),
			circuits.CarrySaveMultiplier(&t03, 4, 15e-15).Circuit,
		}
	})
	for _, c := range cs {
		c.SleepWL = 10
		// Every input toggles, in a seeded direction: a constant input
		// would become a DC rail and drop out of the proofs.
		oldV, newV := map[string]bool{}, map[string]bool{}
		for _, in := range c.Inputs {
			b := rng.Intn(2) == 1
			oldV[in.Name], newV[in.Name] = b, !b
		}
		var nl *netlist.Netlist
		var err error
		tr.call("circuit", "expand", func() { nl, err = c.Netlist(edge(oldV, newV)) })
		if err != nil {
			return nil, err
		}
		var f *netlist.Flat
		tr.call("netlist", "flatten", func() { f, err = nl.Flatten() })
		if err != nil {
			return nil, err
		}
		decks = append(decks, deck{c.Name, f})
	}
	files, err := filepath.Glob(deckGlob)
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no decks match %s: run from the repository root", deckGlob)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var nl *netlist.Netlist
		tr.call("netlist", "parse", func() { nl, err = netlist.Parse(bytes.NewReader(src)) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		var f *netlist.Flat
		tr.call("netlist", "flatten", func() { f, err = nl.Flatten() })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		decks = append(decks, deck{filepath.Base(path), f})
	}
	var jobs []job
	for r := 0; r < proveRounds; r++ {
		for _, d := range decks {
			jobs = append(jobs, job{d.name, func(tr *tracer) outcome { return proveJob(tr, d.flat) }})
		}
	}
	return jobs, nil
}

// proveJob analyzes one deck, proves its path conditions and refines
// every sleep device's discharge bound, checking that each refined bound
// stays at or under the naive sum and that every witness replayed.
func proveJob(tr *tracer, f *netlist.Flat) outcome {
	var a *sca.Analysis
	tr.call("sca", "analyze", func() { a = sca.Analyze(f, sca.Config{}) })
	var p *sca.Proof
	tr.call("sca", "prove", func() { p = a.Prove() })
	var rs []sca.DeckRefinement
	tr.call("sca", "refine", func() { rs = a.RefineDeck(sca.ExclConfig{Workers: 1}) })

	tr.add("sat.queries", float64(p.Stats.Queries))
	tr.add("sat.unknown", float64(p.Stats.Unknown))
	var checks []error
	sum, refined, proven := 0.0, 0.0, 0
	for _, r := range rs {
		st := r.Stats
		tr.add("sat.queries", float64(st.Queries))
		tr.add("sat.unknown", float64(st.Unknown))
		tr.add("sca.candidate_pairs", float64(st.CandidatePairs))
		tr.add("sca.prefilter_refuted", float64(st.PrefilterRefuted))
		tr.add("sca.queried", float64(st.Queried))
		tr.add("sca.proven", float64(st.Proven))
		tr.add("sca.replay_checked", float64(st.ReplayChecked))
		tr.add("sca.replay_failed", float64(st.ReplayFailed))
		tr.add("sca.bound_wl", r.Refined)
		sum, refined, proven = sum+r.Sum, refined+r.Refined, proven+st.Proven
		if !(r.Refined <= r.Sum) || (len(r.Outputs) > 0 && !(r.Refined > 0)) {
			checks = append(checks, fmt.Errorf("%s: refined bound %g outside (0, sum %g]", r.Device, r.Refined, r.Sum))
		}
		if st.ReplayFailed != 0 {
			checks = append(checks, fmt.Errorf("%s: %d witnesses failed replay", r.Device, st.ReplayFailed))
		}
	}
	return outcome{
		check: errors.Join(checks...),
		note: fmt.Sprintf("devices=%d sum=%g refined=%g proven=%d shorts=%d floating=%d",
			len(rs), sum, refined, proven, len(p.Shorts), len(p.Floating)),
	}
}
