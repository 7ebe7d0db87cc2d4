package spice

import (
	"context"
	"errors"
	"math"
	"time"

	"mtcmos/internal/simerr"
)

// Rung identifies a level of the convergence-recovery ladder. The
// engine climbs the ladder in order when a timestep fails to converge:
// plain retries at smaller dt (back-off), ω-damped Newton updates
// (damping), conductance homotopy (Gmin stepping), and finally source
// ramping. Device-evaluation hooks receive the active rung, which is
// how the fault-injection harness proves each rung fires.
type Rung int

const (
	// RungNone is the normal stepping path (no recovery active).
	RungNone Rung = iota
	// RungBackoff retries the step at successively halved timesteps.
	RungBackoff
	// RungDamping scales every Newton update vector by omega < 1.
	RungDamping
	// RungGmin solves a sequence of problems with a shrinking shunt
	// conductance to ground on every free node, re-seeding each solve
	// from the previous one, ending at the physical gmin = 0.
	RungGmin
	// RungSourceRamp applies the step's source change in fractions,
	// carrying the solution forward between fractions.
	RungSourceRamp
)

func (r Rung) String() string {
	switch r {
	case RungNone:
		return "none"
	case RungBackoff:
		return "backoff"
	case RungDamping:
		return "damping"
	case RungGmin:
		return "gmin"
	case RungSourceRamp:
		return "source-ramp"
	default:
		return "unknown"
	}
}

// Recovery tunes the convergence-recovery ladder. The zero value
// enables every rung at its default strength.
type Recovery struct {
	// Disable restores the historical behavior: fail with
	// ErrNoConvergence as soon as timestep back-off reaches DTMin.
	Disable bool
	// DampingLevels is how many under-relaxation retries to attempt
	// (omega = 1/2, 1/4, ...). Default 2.
	DampingLevels int
	// GminLadder is the conductance-stepping schedule in siemens,
	// largest first; a final gmin = 0 solve is always appended.
	// Default {1e-3, 1e-6, 1e-9, 1e-12}.
	GminLadder []float64
	// SourceRampSteps is how many fractions the source change is
	// split into on the last rung. Default 4.
	SourceRampSteps int
}

func (r Recovery) withDefaults() Recovery {
	if r.DampingLevels <= 0 {
		r.DampingLevels = 2
	}
	if r.GminLadder == nil {
		r.GminLadder = []float64{1e-3, 1e-6, 1e-9, 1e-12}
	}
	if r.SourceRampSteps <= 0 {
		r.SourceRampSteps = 4
	}
	return r
}

// RecoveryStats counts ladder activity over a run.
type RecoveryStats struct {
	Backoffs    int // timestep halvings after a failed attempt
	Dampings    int // steps rescued by under-relaxation
	GminSteps   int // steps rescued by conductance stepping
	SourceRamps int // steps rescued by source ramping
	Rescued     int // total steps accepted above the back-off rung
}

// EvalInfo describes one device evaluation to an Intercept hook.
type EvalInfo struct {
	Device string  // netlist device name
	T      float64 // target time of the step being solved
	Dt     float64 // timestep being attempted
	Sweep  int     // Newton iteration index within the attempt
	Rung   Rung    // active recovery rung (RungNone on the normal path)
}

// Intercept observes and may replace every MOS drain-source current the
// engine computes; internal/faultinject builds these hooks to seed
// NaNs, current spikes and stuck iterations on schedule.
type Intercept func(info EvalInfo, ids float64) float64

// runState is the mutable transient-loop state shared by the stepping
// and recovery code. One runState belongs to exactly one Run call;
// the solver vectors are recycled through the engine's pool, while
// everything that escapes to the caller (the Result) is run-fresh.
type runState struct {
	v, vprev, vtrial []float64
	t, dt            float64
	res              *Result
	record           func(t float64, force bool)
	start            time.Time

	// Device-evaluation interception (fault injection) for this run.
	icept Intercept
	einfo EvalInfo

	// Newton step-solver workspaces (newton.go), allocated on the
	// run's first step.
	nw *newtonWork
}

// attempt parameterizes one candidate solve of a single timestep.
type attempt struct {
	dt       float64
	omega    float64 // under-relaxation factor (1 = undamped)
	gmin     float64 // shunt conductance to ground on free nodes
	lambda   float64 // fraction of the source move toward t+dt applied
	maxIter  int
	rung     Rung
	keepSeed bool // keep vtrial from the previous attempt as the seed
}

// stepOut reports one step-solve attempt.
type stepOut struct {
	converged bool
	iters     int   // Newton iterations spent
	worst     int32 // node with the largest final update (diagnostics)
	nan       bool  // a NaN/Inf voltage appeared at node worst
}

// stepError builds a classified failure carrying the partial-run
// diagnostics.
func (e *Engine) stepError(kind error, st *runState, node int32, t, dt float64, msg string) *simerr.Error {
	name := ""
	if node >= 0 {
		name = e.names[node]
	}
	return &simerr.Error{
		Kind: kind, Op: "spice", Node: name, T: t, Dt: dt,
		Sweeps: st.res.Sweeps, Steps: st.res.Steps, Msg: msg,
	}
}

// checkBudgets enforces cancellation and the step/eval/wall budgets;
// called between step attempts so overshoot is at most one attempt.
func (e *Engine) checkBudgets(o *Options, st *runState) error {
	if o.Ctx != nil {
		if err := o.Ctx.Err(); err != nil {
			kind, msg := simerr.ErrCancelled, err.Error()
			if cause := context.Cause(o.Ctx); cause != nil && errors.Is(cause, simerr.ErrBudget) {
				kind, msg = simerr.ErrBudget, cause.Error()
			}
			return e.stepError(kind, st, -1, st.t, st.dt, msg)
		}
	}
	if o.MaxWall > 0 && time.Since(st.start) > o.MaxWall {
		return e.stepError(simerr.ErrBudget, st, -1, st.t, st.dt, "wall clock budget "+o.MaxWall.String()+" exhausted")
	}
	if o.MaxSteps > 0 && st.res.Steps >= o.MaxSteps {
		return e.stepError(simerr.ErrBudget, st, -1, st.t, st.dt, "step budget exhausted")
	}
	if o.MaxEvals > 0 && st.res.Evals >= o.MaxEvals {
		return e.stepError(simerr.ErrBudget, st, -1, st.t, st.dt, "device-evaluation budget exhausted")
	}
	return nil
}

// attemptStep seeds vtrial, applies the (possibly ramped) source
// values for t+dt, and runs the Newton step solver.
func (e *Engine) attemptStep(o *Options, st *runState, a attempt) stepOut {
	copy(st.vprev, st.v)
	if !a.keepSeed {
		copy(st.vtrial, st.v)
	}
	tNew := st.t + a.dt
	for _, s := range e.srcs {
		if s.node == groundIdx {
			continue
		}
		target := s.v.At(tNew)
		if a.lambda < 1 {
			from := s.v.At(st.t)
			target = from + a.lambda*(target-from)
		}
		st.vtrial[s.node] = target
	}
	st.einfo = EvalInfo{T: tNew, Dt: a.dt, Rung: a.rung}
	return e.solveNewton(o, st, a)
}

// advance takes one timestep of at most dtTry from st.t, climbing the
// convergence-recovery ladder on failure: timestep back-off, then
// under-relaxation, then Gmin conductance stepping, then source
// ramping. On success the state and result are updated; otherwise a
// typed *simerr.Error is returned and the partial result stays valid.
func (e *Engine) advance(o *Options, st *runState, dtTry float64) error {
	accept := func(a attempt, iters int, rescued bool) {
		copy(st.v, st.vtrial)
		st.t += a.dt
		st.res.Steps++
		st.record(st.t, st.t >= o.TStop)
		if rescued {
			st.res.Recovery.Rescued++
			// Restart cautiously from the rescued step's size.
			st.dt = math.Max(a.dt, o.DTMin)
			return
		}
		// Adapt: a step that converged in at most two Newton
		// iterations earns a larger one; more than five halves it.
		if iters <= 2 {
			st.dt = math.Min(st.dt*1.4, o.DTMax)
		} else if iters > 5 {
			st.dt = math.Max(st.dt/2, o.DTMin)
		}
	}

	// Rung 1: plain attempts with timestep back-off.
	var last stepOut
	rung := RungNone
	for {
		if err := e.checkBudgets(o, st); err != nil {
			return err
		}
		a := attempt{dt: dtTry, omega: 1, lambda: 1, maxIter: o.MaxSweep, rung: rung}
		out := e.attemptStep(o, st, a)
		st.res.Sweeps += out.iters
		if out.nan {
			return e.stepError(simerr.ErrNumerical, st, out.worst, st.t+a.dt, a.dt, "NaN/Inf voltage")
		}
		if out.converged {
			accept(a, out.iters, false)
			return nil
		}
		last = out
		dtTry /= 2
		rung = RungBackoff
		st.res.Recovery.Backoffs++
		if dtTry < o.DTMin {
			break
		}
		st.dt = dtTry
	}
	dtd := math.Max(dtTry*2, o.DTMin)
	if o.Recovery.Disable {
		return e.stepError(simerr.ErrNoConvergence, st, last.worst, st.t, dtd,
			"no convergence even at minimum timestep (recovery disabled)")
	}

	// Rung 2: under-relaxation at the minimum viable timestep.
	omega := 0.5
	for k := 0; k < o.Recovery.DampingLevels; k++ {
		a := attempt{dt: dtd, omega: omega, lambda: 1, maxIter: 2 * o.MaxSweep, rung: RungDamping}
		out := e.attemptStep(o, st, a)
		st.res.Sweeps += out.iters
		if out.nan {
			return e.stepError(simerr.ErrNumerical, st, out.worst, st.t+a.dt, a.dt, "NaN/Inf voltage")
		}
		if out.converged {
			st.res.Recovery.Dampings++
			accept(a, out.iters, true)
			return nil
		}
		last = out
		omega /= 2
	}

	// Rung 3: Gmin conductance stepping, each solve seeding the next,
	// ending at the physical gmin = 0.
	if ok, out, a, err := e.homotopy(o, st, dtd, RungGmin, o.Recovery.GminLadder); err != nil {
		return err
	} else if ok {
		st.res.Recovery.GminSteps++
		accept(a, out.iters, true)
		return nil
	} else if out.worst >= 0 {
		last = out
	}

	// Rung 4: source ramping — apply the step's source change in
	// fractions, carrying the solution forward.
	if ok, out, a, err := e.homotopy(o, st, dtd, RungSourceRamp, nil); err != nil {
		return err
	} else if ok {
		st.res.Recovery.SourceRamps++
		accept(a, out.iters, true)
		return nil
	} else if out.worst >= 0 {
		last = out
	}

	return e.stepError(simerr.ErrNoConvergence, st, last.worst, st.t, dtd, "recovery ladder exhausted")
}

// homotopy runs the Gmin or source-ramp rung: a sequence of eased
// problems whose converged solutions seed one another. The final
// problem of the sequence is the physical one, so its solution (when
// every stage converges) is a legitimate step.
func (e *Engine) homotopy(o *Options, st *runState, dt float64, rung Rung, gmins []float64) (bool, stepOut, attempt, error) {
	var stages []attempt
	switch rung {
	case RungGmin:
		for _, g := range gmins {
			stages = append(stages, attempt{dt: dt, omega: 0.5, gmin: g, lambda: 1, maxIter: 2 * o.MaxSweep, rung: rung})
		}
		stages = append(stages, attempt{dt: dt, omega: 0.5, lambda: 1, maxIter: 2 * o.MaxSweep, rung: rung})
	case RungSourceRamp:
		n := o.Recovery.SourceRampSteps
		for k := 1; k <= n; k++ {
			stages = append(stages, attempt{dt: dt, omega: 0.5, lambda: float64(k) / float64(n), maxIter: 2 * o.MaxSweep, rung: rung})
		}
	}
	var out stepOut
	var a attempt
	for i, stage := range stages {
		if err := e.checkBudgets(o, st); err != nil {
			return false, out, a, err
		}
		stage.keepSeed = i > 0
		a = stage
		out = e.attemptStep(o, st, a)
		st.res.Sweeps += out.iters
		if out.nan {
			return false, out, a, e.stepError(simerr.ErrNumerical, st, out.worst, st.t+a.dt, a.dt, "NaN/Inf voltage")
		}
		if !out.converged {
			return false, out, a, nil
		}
	}
	return true, out, a, nil
}
