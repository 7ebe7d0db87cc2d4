package spice

import "math"

// This file is the transient step solver. One backward-Euler step is
// solved by Newton iterations over all free nodes simultaneously — each
// iteration assembles the KCL residual with companion-model capacitor
// stamps and solves J·delta = f with the sparse analytic-Jacobian
// kernel. Options.Solver = SolverDense swaps in the numeric-probe dense
// kernel, the oracle the sparse path is tested against.
//
// The recovery ladder plugs in unchanged: an attempt's omega
// under-relaxes the whole update vector (RungDamping), its gmin loads
// every diagonal through the stamp pass (RungGmin), and its lambda has
// already moved the fixed source nodes to partial targets before this
// solver runs (RungSourceRamp) — the three homotopies are exactly
// diagonal and RHS modifications of the same Newton system.

// newtonWork holds the transient Newton workspaces of one runState:
// the sparse kernel's factorization state and the dense oracle's
// probe/Jacobian buffers, allocated on first use and recycled with the
// runState through the engine pool.
type newtonWork struct {
	w     *spWork     // sparse: stamp + factor + solve workspace
	f, fp []float64   // dense: residual base and probe vectors
	jac   [][]float64 // dense: probed Jacobian
}

func (st *runState) newton(e *Engine, dense bool) *newtonWork {
	if st.nw == nil {
		st.nw = &newtonWork{}
	}
	nw := st.nw
	nf := len(e.order)
	if !dense && nw.w == nil {
		nw.w = e.sparse().lease()
	}
	if dense && nw.jac == nil {
		nw.f = make([]float64, nf)
		nw.fp = make([]float64, nf)
		nw.jac = make([][]float64, nf)
		for i := range nw.jac {
			nw.jac[i] = make([]float64, nf)
		}
	}
	return nw
}

// solveNewton solves one timestep attempt by full Newton iteration: at
// most a.maxIter iterations, a per-update NaN guard with the offending
// node identified, converged when the largest applied voltage move
// falls below VTol.
func (e *Engine) solveNewton(o *Options, st *runState, a attempt) stepOut {
	out := stepOut{worst: -1}
	nf := len(e.order)
	if nf == 0 {
		out.converged = true
		return out
	}
	dense := o.Solver == SolverDense
	nw := st.newton(e, dense)
	vtrial, vprev := st.vtrial, st.vprev
	// Per-node step limiter: caps each node's update at (|Vdd|+1)/2.
	lim := 0.5 * (math.Abs(e.tech.Vdd) + 1)

	var sp *sparseCtx
	if !dense {
		sp = e.sparse()
	}
	for ; out.iters < a.maxIter; out.iters++ {
		st.einfo.Sweep = out.iters
		var delta []float64
		if dense {
			for k, i := range e.order {
				nw.f[k] = e.residual(i, vtrial, vprev, a.dt, a.gmin, st)
			}
			const h = 1e-7
			for col, j := range e.order {
				old := vtrial[j]
				vtrial[j] = old + h
				for row, i := range e.order {
					nw.fp[row] = e.residual(i, vtrial, vprev, a.dt, a.gmin, st)
				}
				vtrial[j] = old
				for row := range e.order {
					nw.jac[row][col] = (nw.fp[row] - nw.f[row]) / h
				}
			}
			delta, _ = solveDense(nw.jac, nw.f) // error path is unreachable
		} else {
			e.stampSystem(sp, nw.w, vtrial, vprev, a.dt, a.gmin, st)
			sp.sym.refactor(nw.w.num, nw.w.aval)
			sp.sym.solve(nw.w.num, nw.w.rhs, nw.w.delta)
			delta = nw.w.delta
		}
		maxDelta := 0.0
		for k, i := range e.order {
			step := delta[k]
			if step > lim {
				step = lim
			} else if step < -lim {
				step = -lim
			}
			step *= a.omega
			vtrial[i] -= step
			if math.IsNaN(vtrial[i]) || math.IsInf(vtrial[i], 0) {
				out.nan = true
				out.worst = i
				return out
			}
			if d := math.Abs(step); d > maxDelta {
				maxDelta = d
				out.worst = i
			}
		}
		if maxDelta < o.VTol {
			out.converged = true
			out.iters++
			break
		}
	}
	return out
}
