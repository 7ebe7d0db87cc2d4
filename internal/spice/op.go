package spice

import (
	"fmt"
	"math"
)

// gmin stepping schedule shared by both DC kernels: start heavily
// loaded toward ground, relax to a 1e-16 S floor — 0.1 fA at 1 V,
// below the femtoamp leakage signals this solver exists to resolve,
// while keeping isolated OFF-stack nodes' Jacobian columns
// nonsingular. The two heavy leading stages only do work on cold
// starts of large circuits (their tolerance is loose enough that a
// warm solution passes straight through); they anchor the mA-scale
// nonlinearities that make a from-zero Newton wander.
var opGmins = []float64{1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16}

// opScales is the backtracking line-search schedule: accept the first
// step fraction that reduces the residual norm; if none does, keep the
// smallest step so the iteration still moves off limit cycles.
var opScales = []float64{1, 0.5, 0.25, 0.125, 0.0625}

// opClamp bounds each Newton update component to keep the exponential
// subthreshold terms in their basin. Per-component (not a global
// rescale): one near-singular node demanding a huge correction must
// not starve every other node of its step.
const opClamp = 0.25

// opTol is the residual convergence tolerance at a gmin stage:
// machine-precision-scale for the physics, but never below the gmin
// homotopy artifact (a node held at the voltage clamp cannot balance
// its gmin load).
func opTol(gmin, vdd float64) float64 {
	return math.Max(1e-15, 2*gmin*(vdd+1))
}

// Polish control: once the final gmin stage has met the residual
// tolerance, the ladder runs a few more undamped Newton iterations
// until the voltage update stalls below opPolishTol. Newton's fixed
// point is the root of the residual regardless of how the Jacobian
// was built, so polishing parks the dense and sparse solutions on the
// same answer to within rounding — which is what lets rendered
// output independent of which kernel the size rule picks.
const (
	opPolishTol = 1e-12
	opPolishMax = 6
)

// OPStats reports what a DC solve cost and which kernel produced it.
type OPStats struct {
	Solver         Solver // kernel that produced the returned solution
	Iterations     int    // Newton iterations across the gmin ladder
	Evals          int    // device (MOS) model evaluations
	Factorizations int    // linear solves (dense eliminations or sparse refactors)
	FellBack       bool   // auto: sparse did not converge, dense rescued
	Ramped         bool   // cold start needed the supply-ramp rescue
}

// opKernel abstracts the linear algebra under the shared Newton/gmin
// ladder: the dense oracle probes the Jacobian numerically, the sparse
// kernel assembles it from analytic device stamps. The driver calls
// residual (possibly several times per iteration, for the line
// search) and then newton, which may rely on the most recent residual
// call having been at the same v.
type opKernel interface {
	// residual assembles the KCL residual at v with the given gmin
	// load and returns its infinity norm.
	residual(v []float64, gmin float64) float64
	// newton solves J·delta = f at the most recent residual point and
	// returns the update (owned by the kernel, valid until the next
	// call).
	newton(v []float64, gmin float64) ([]float64, error)
}

// OperatingPoint computes the DC steady state of the compiled circuit
// with a full Newton iteration over all free nodes and gmin stepping
// for robustness. It solves for the steady state directly, so it
// reaches collective slow modes — e.g. an MTCMOS virtual ground
// floating up in standby together with every output-low load — that a
// transient would take microseconds of simulated time to settle.
// Sources are evaluated at time tEval; seed voltages (by node name)
// accelerate convergence.
//
// The linear kernel is chosen automatically by circuit size: the
// analytic-stamp sparse kernel (stamp.go, sparse.go) for larger
// circuits, the numeric-probe dense oracle for small ones, with a
// dense retry if the sparse path fails to converge. Use
// OperatingPointWith to force a kernel.
func (e *Engine) OperatingPoint(seed map[string]float64, tEval float64) ([]float64, error) {
	v, _, err := e.OperatingPointStats(seed, tEval, SolverAuto)
	return v, err
}

// OperatingPointWith is OperatingPoint with an explicit kernel choice.
func (e *Engine) OperatingPointWith(seed map[string]float64, tEval float64, solver Solver) ([]float64, error) {
	v, _, err := e.OperatingPointStats(seed, tEval, solver)
	return v, err
}

// OperatingPointStats is OperatingPointWith plus cost accounting.
func (e *Engine) OperatingPointStats(seed map[string]float64, tEval float64, solver Solver) ([]float64, OPStats, error) {
	setup := func() []float64 {
		v := make([]float64, len(e.names))
		for name, val := range seed {
			if i, ok := e.index[name]; ok {
				v[i] = val
			}
		}
		for _, s := range e.srcs {
			if s.node != groundIdx {
				v[s.node] = s.v.At(tEval)
			}
		}
		return v
	}
	stats := OPStats{Solver: solver}
	nf := len(e.order)
	if nf == 0 {
		if solver == SolverAuto {
			stats.Solver = SolverDense
		}
		return setup(), stats, nil
	}

	// run drives one kernel to a solution: a direct attempt first,
	// then — exactly as the transient ladder's last rung does — a
	// supply-ramp homotopy for cold starts whose straight Newton walks
	// out of the basin. Each ramp stage solves a full gmin ladder at
	// partial supply values and seeds the next; the final stage is the
	// physical problem, so its solution is legitimate.
	run := func(k opKernel) ([]float64, error) {
		v := setup()
		err := e.opLadder(k, v, &stats)
		if err == nil {
			return v, nil
		}
		stats.Ramped = true
		v = make([]float64, len(e.names))
		for _, lambda := range []float64{0.25, 0.5, 0.75, 1} {
			for _, s := range e.srcs {
				if s.node != groundIdx {
					v[s.node] = lambda * s.v.At(tEval)
				}
			}
			if err := e.opLadder(k, v, &stats); err != nil {
				return nil, err
			}
		}
		return v, nil
	}

	if solver == SolverSparse || (solver == SolverAuto && nf >= autoSparseNodes) {
		stats.Solver = SolverSparse
		sp := e.sparse()
		w := sp.lease()
		v, err := run(&sparseOpKernel{e: e, sp: sp, w: w, stats: &stats})
		sp.release(w)
		if err == nil {
			return v, stats, nil
		}
		if solver == SolverSparse {
			return nil, stats, err
		}
		// Auto mode: the sparse kernel refused; rerun from scratch on
		// the assumption-free dense oracle before giving up.
		stats.FellBack = true
		stats.Ramped = false
	}
	stats.Solver = SolverDense
	v, err := run(newDenseOpKernel(e, &stats))
	if err != nil {
		return nil, stats, err
	}
	return v, stats, nil
}

// opApply applies a Newton update scaled by scale with rail clamping
// and returns the largest applied voltage move.
func (e *Engine) opApply(v, delta []float64, scale float64) float64 {
	maxStep := 0.0
	for k, i := range e.order {
		step := scale * delta[k]
		if a := math.Abs(step); a > maxStep {
			maxStep = a
		}
		v[i] -= step
		// Voltages cannot leave the rail window by much.
		v[i] = math.Max(-1, math.Min(v[i], e.tech.Vdd+1))
	}
	return maxStep
}

// opLadder runs the shared gmin-stepping Newton iteration on a kernel:
// at each gmin stage, damped Newton steps (per-component clamp plus a
// backtracking line search on the residual norm) until the stage
// tolerance holds, then on the final stage a polish to a stationary
// point. Returns an error only when the final stage cannot reach even
// the relaxed residual bound.
func (e *Engine) opLadder(k opKernel, v []float64, stats *OPStats) error {
	vdd := e.tech.Vdd
	vsave := make([]float64, len(v))
	last := len(opGmins) - 1
	for gi, gmin := range opGmins {
		converged := false
		maxf := k.residual(v, gmin)
		for iter := 0; iter < 80; iter++ {
			if maxf < opTol(gmin, vdd) {
				converged = true
				break
			}
			delta, err := k.newton(v, gmin)
			if err != nil {
				return err
			}
			stats.Iterations++
			for i, d := range delta {
				if math.IsNaN(d) || math.IsInf(d, 0) {
					return fmt.Errorf("spice: operating point: non-finite Newton update at node %s", e.names[e.order[i]])
				}
				delta[i] = math.Max(-opClamp, math.Min(d, opClamp))
			}
			copy(vsave, v)
			accepted := false
			for _, sc := range opScales {
				copy(v, vsave)
				e.opApply(v, delta, sc)
				if mf := k.residual(v, gmin); mf < maxf {
					maxf = mf
					accepted = true
					break
				}
			}
			if !accepted {
				// No fraction improved: keep the smallest step (v
				// currently holds it) so the iteration can escape a
				// limit cycle instead of stalling in place.
				maxf = k.residual(v, gmin)
			}
		}
		if gi < last {
			continue
		}
		if !converged {
			// The final refinement is allowed to stop above the strict
			// tolerance: femtoamp-scale residuals ride rounding noise.
			if maxf := k.residual(v, 0); maxf > 1e-12 {
				return fmt.Errorf("spice: operating point did not converge (max residual %g A)", maxf)
			}
			return nil
		}
		// Polish the final stage to a stationary point (see the
		// opPolishTol comment for why).
		for p := 0; p < opPolishMax; p++ {
			k.residual(v, gmin)
			delta, err := k.newton(v, gmin)
			if err != nil {
				return err
			}
			stats.Iterations++
			finite := true
			for _, d := range delta {
				if math.IsNaN(d) || math.IsInf(d, 0) {
					finite = false
				}
			}
			if !finite {
				break
			}
			if e.opApply(v, delta, 1) < opPolishTol {
				break
			}
		}
	}
	return nil
}

// sparseOpKernel adapts the analytic-stamp sparse machinery to the
// ladder driver: residual is one stamp pass (which also refreshes the
// Jacobian values), newton is one numeric refactorization against the
// engine's precomputed symbolic factorization.
type sparseOpKernel struct {
	e     *Engine
	sp    *sparseCtx
	w     *spWork
	stats *OPStats
}

func (k *sparseOpKernel) residual(v []float64, gmin float64) float64 {
	k.stats.Evals += k.e.stampSystem(k.sp, k.w, v, nil, 0, gmin, nil)
	maxf := 0.0
	for _, x := range k.w.rhs {
		if a := math.Abs(x); a > maxf {
			maxf = a
		}
	}
	return maxf
}

func (k *sparseOpKernel) newton(v []float64, gmin float64) ([]float64, error) {
	k.sp.sym.refactor(k.w.num, k.w.aval)
	k.stats.Factorizations++
	k.sp.sym.solve(k.w.num, k.w.rhs, k.w.delta)
	return k.w.delta, nil
}

// denseOpKernel adapts the numeric-probe oracle: residual re-evaluates
// the device currents node by node, newton probes the Jacobian column
// by column (one residual assembly per free node) and solves by dense
// partial-pivoting LU. Slow but assumption-free; this is the oracle
// the sparse path is validated against.
type denseOpKernel struct {
	e      *Engine
	stats  *OPStats
	f, fp  []float64
	jac    [][]float64
	perRes int // device evaluations per residual assembly
}

func newDenseOpKernel(e *Engine, stats *OPStats) *denseOpKernel {
	nf := len(e.order)
	k := &denseOpKernel{
		e: e, stats: stats,
		f:   make([]float64, nf),
		fp:  make([]float64, nf),
		jac: make([][]float64, nf),
	}
	for i := range k.jac {
		k.jac[i] = make([]float64, nf)
	}
	for _, i := range e.order {
		k.perRes += len(e.nodeMOS[i])
	}
	return k
}

func (k *denseOpKernel) assemble(v []float64, gmin float64, out []float64) {
	for idx, i := range k.e.order {
		out[idx] = k.e.deviceCurrentInto(i, v, nil) - gmin*v[i]
	}
	k.stats.Evals += k.perRes
}

func (k *denseOpKernel) residual(v []float64, gmin float64) float64 {
	k.assemble(v, gmin, k.f)
	maxf := 0.0
	for _, x := range k.f {
		if a := math.Abs(x); a > maxf {
			maxf = a
		}
	}
	return maxf
}

func (k *denseOpKernel) newton(v []float64, gmin float64) ([]float64, error) {
	// Numeric Jacobian, column by column (dense; the circuits this
	// kernel targets are a few dozen nodes).
	const h = 1e-7
	free := k.e.order
	for col, j := range free {
		old := v[j]
		v[j] = old + h
		k.assemble(v, gmin, k.fp)
		v[j] = old
		for row := range free {
			k.jac[row][col] = (k.fp[row] - k.f[row]) / h
		}
	}
	delta, err := solveDense(k.jac, k.f)
	if err != nil {
		return nil, fmt.Errorf("spice: operating point: %w", err)
	}
	k.stats.Factorizations++
	return delta, nil
}

// solveDense solves J x = b in place with partial pivoting (J and b
// are clobbered).
func solveDense(j [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		best := math.Abs(j[col][col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(j[r][col]); a > best {
				best, p = a, r
			}
		}
		if best == 0 {
			// Insensitive unknown (isolated node): leave it where it
			// is rather than failing the whole solve.
			j[col][col] = 1
			b[col] = 0
			continue
		}
		j[col], j[p] = j[p], j[col]
		b[col], b[p] = b[p], b[col]
		inv := 1 / j[col][col]
		for r := col + 1; r < n; r++ {
			fac := j[r][col] * inv
			if fac == 0 {
				continue
			}
			for c := col; c < n; c++ {
				j[r][c] -= fac * j[col][c]
			}
			b[r] -= fac * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= j[r][c] * x[c]
		}
		x[r] = sum / j[r][r]
	}
	return x, nil
}

// NodeVoltage reads one node from an operating-point vector.
func (e *Engine) NodeVoltage(v []float64, name string) (float64, bool) {
	i, ok := e.index[name]
	if !ok {
		return 0, false
	}
	return v[i], true
}

// SupplyCurrent returns the current a source-driven node delivers into
// the devices at the operating point.
func (e *Engine) SupplyCurrent(v []float64, name string) (float64, bool) {
	i, ok := e.index[name]
	if !ok {
		return 0, false
	}
	return -e.deviceCurrentInto(i, v, nil), true
}
