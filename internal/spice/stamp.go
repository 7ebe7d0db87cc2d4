package spice

import (
	"sync"

	"mtcmos/internal/mosfet"
)

// This file assembles the sparse Newton systems solved by the analytic
// kernel: the Solver kernel names, the per-engine sparse context
// (symbolic factorization plus precomputed stamp destinations), and the
// stamp pass itself. The division of labor with sparse.go: sparse.go
// knows linear algebra and nothing about circuits; this file knows
// circuits and nothing about elimination.
//
// The Jacobian convention matches the numeric probe in op.go exactly:
// the residual at free node i is f_i = (device+resistor current into i)
// − gmin·v_i − (capacitor charging current, transient only), and the
// assembled matrix is J[r][c] = ∂f_r/∂v_c. Newton then solves
// J·delta = f and applies v -= delta.

// Solver selects the linear kernel behind the Newton solvers (DC
// operating point and transient steps). Product code uses SolverAuto;
// SolverDense exists as the oracle the kernel tests compare against.
type Solver int

const (
	// SolverAuto is the sparse kernel for transient steps; for DC
	// solves it picks by circuit size (dense below autoSparseNodes free
	// nodes, sparse above, with a dense fallback if sparse fails to
	// converge).
	SolverAuto Solver = iota
	// SolverDense forces the numeric-probe dense kernel: one circuit
	// re-evaluation per node per Newton iteration and an O(n³) LU. Slow
	// but assumption-free; kept as the oracle the sparse path is tested
	// against, not as a product path.
	SolverDense
	// SolverSparse forces the analytic-stamp sparse kernel everywhere.
	SolverSparse
)

func (s Solver) String() string {
	switch s {
	case SolverDense:
		return "dense"
	case SolverSparse:
		return "sparse"
	default:
		return "auto"
	}
}

// autoSparseNodes is the free-node count at which SolverAuto switches
// the DC operating point from the dense oracle to the sparse kernel:
// below it the dense solve is already microseconds and not worth the
// ordering setup; above it the O(n³) solve and O(n) re-evaluations per
// column dominate.
const autoSparseNodes = 32

// mosStamp holds the precomputed destinations of one MOS device's
// Jacobian entries: for each of its current-carrying terminals (drain
// row, source row) the value-array slots of the four terminal columns
// in d, g, s, b order. A row is -1 when that terminal is fixed or
// ground; a column slot is -1 when that terminal's node is not an
// unknown.
type mosStamp struct {
	rowD, rowS int32
	dCols      [4]int32
	sCols      [4]int32
}

// twoStamp is the 2×2 conductance-style block of a resistor or
// floating capacitor: slots aa, ab, ba, bb (-1 where the node pair
// leaves the free set).
type twoStamp struct {
	rowA, rowB     int32
	aa, ab, ba, bb int32
}

// spWork is the per-solve numeric workspace: one factorization state
// plus assembly and solution vectors. Leased from the context's pool so
// concurrent runs on a shared engine never contend.
type spWork struct {
	num   *sparseNum
	aval  []float64
	rhs   []float64
	delta []float64
}

// sparseCtx is the per-engine sparse solver context: the symbolic
// factorization (immutable, shared) and the baked stamp destinations.
// Built lazily on first use, so an engine that is compiled and never
// solved pays nothing for the ordering.
type sparseCtx struct {
	sym   *sparseSym
	rowOf []int32 // engine node index -> matrix row, -1 if fixed/ground

	mosS []mosStamp
	resS []twoStamp
	capS []twoStamp
	diag []int32 // matrix row -> slot of its diagonal entry

	pool sync.Pool // *spWork
}

// sparse returns the engine's lazily-built sparse context. Safe for
// concurrent callers; the symbolic factorization is computed exactly
// once per compiled engine and reused by every solve afterwards.
func (e *Engine) sparse() *sparseCtx {
	e.sparseOnce.Do(func() { e.sp = e.buildSparse() })
	return e.sp
}

func (e *Engine) buildSparse() *sparseCtx {
	nf := len(e.order)
	sp := &sparseCtx{rowOf: make([]int32, len(e.names))}
	for i := range sp.rowOf {
		sp.rowOf[i] = -1
	}
	for k, i := range e.order {
		sp.rowOf[i] = int32(k)
	}
	row := func(node int32) int32 {
		if node == groundIdx {
			return -1
		}
		return sp.rowOf[node]
	}

	// Structural pattern: every (row, col) pair a stamp can touch.
	rows := make([][]int32, nf)
	couple := func(r, c int32) {
		if r >= 0 && c >= 0 {
			rows[r] = append(rows[r], c)
		}
	}
	for _, m := range e.mos {
		rd, rg, rs, rb := row(m.d), row(m.g), row(m.s), row(m.b)
		for _, r := range []int32{rd, rs} {
			couple(r, rd)
			couple(r, rg)
			couple(r, rs)
			couple(r, rb)
		}
	}
	for _, r := range e.ress {
		ra, rb := row(r.a), row(r.b)
		couple(ra, ra)
		couple(ra, rb)
		couple(rb, ra)
		couple(rb, rb)
	}
	for _, c := range e.fcaps {
		ra, rb := row(c.a), row(c.b)
		couple(ra, ra)
		couple(ra, rb)
		couple(rb, ra)
		couple(rb, rb)
	}
	sp.sym = newSparseSym(rows)

	// Bake stamp destinations against the final pattern.
	slot := func(r, c int32) int32 {
		if r < 0 || c < 0 {
			return -1
		}
		return sp.sym.slot(r, c)
	}
	sp.mosS = make([]mosStamp, len(e.mos))
	for i, m := range e.mos {
		cols := [4]int32{row(m.d), row(m.g), row(m.s), row(m.b)}
		st := mosStamp{rowD: row(m.d), rowS: row(m.s)}
		for t, c := range cols {
			st.dCols[t] = slot(st.rowD, c)
			st.sCols[t] = slot(st.rowS, c)
		}
		sp.mosS[i] = st
	}
	two := func(a, b int32) twoStamp {
		ra, rb := row(a), row(b)
		return twoStamp{
			rowA: ra, rowB: rb,
			aa: slot(ra, ra), ab: slot(ra, rb),
			ba: slot(rb, ra), bb: slot(rb, rb),
		}
	}
	sp.resS = make([]twoStamp, len(e.ress))
	for i, r := range e.ress {
		sp.resS[i] = two(r.a, r.b)
	}
	sp.capS = make([]twoStamp, len(e.fcaps))
	for i, c := range e.fcaps {
		sp.capS[i] = two(c.a, c.b)
	}
	sp.diag = make([]int32, nf)
	for k := 0; k < nf; k++ {
		sp.diag[k] = sp.sym.slot(int32(k), int32(k))
	}
	return sp
}

// lease returns a recycled numeric workspace sized for this context.
func (sp *sparseCtx) lease() *spWork {
	if x := sp.pool.Get(); x != nil {
		return x.(*spWork)
	}
	nf := sp.sym.n
	return &spWork{
		num:   sp.sym.newNum(),
		aval:  make([]float64, len(sp.sym.ai)),
		rhs:   make([]float64, nf),
		delta: make([]float64, nf),
	}
}

func (sp *sparseCtx) release(w *spWork) { sp.pool.Put(w) }

// stampSystem assembles the Newton system at node voltages v: the
// residual into w.rhs and the analytic Jacobian into w.aval. dt > 0
// adds the backward-Euler companion stamps (grounded and floating
// capacitors against vprev); dt <= 0 is a DC assembly, matching
// OperatingPoint's residual. gmin loads every free-node diagonal. The
// run's interception hook (fault injection), when present on st,
// observes and may replace each channel current — the current only, so
// injected NaNs poison the residual and fail fast while the Jacobian
// stays finite. Returns the number of device evaluations performed.
func (e *Engine) stampSystem(sp *sparseCtx, w *spWork, v, vprev []float64, dt, gmin float64, st *runState) int {
	aval, rhs := w.aval, w.rhs
	for i := range aval {
		aval[i] = 0
	}
	at := func(i int32) float64 {
		if i == groundIdx {
			return 0
		}
		return v[i]
	}

	// Node-local terms: gmin load, and grounded caps when transient.
	for k, i := range e.order {
		rhs[k] = -gmin * v[i]
		aval[sp.diag[k]] -= gmin
		if dt > 0 {
			c := e.cg[i]
			rhs[k] -= c * (v[i] - vprev[i]) / dt
			aval[sp.diag[k]] -= c / dt
		}
	}

	// MOS devices: one model evaluation each, stamped into both
	// current-carrying rows. dIds[t] = ∂ids/∂v_t over terminals in
	// d, g, s, b order, with ids the NMOS-normalized forward current.
	evals := 0
	for mi := range e.mos {
		m := &e.mos[mi]
		ms := &sp.mosS[mi]
		if ms.rowD < 0 && ms.rowS < 0 {
			continue // both current terminals fixed: no unknowns touched
		}
		vd, vg, vs, vb := at(m.d), at(m.g), at(m.s), at(m.b)
		var ids float64
		var dIds [4]float64
		if m.dev.Kind == mosfet.NMOS {
			i0, gm, gds, gmb := m.dev.IdsDeriv(vg-vs, vd-vs, vs-vb)
			ids = i0
			dIds = [4]float64{gds, gm, -(gm + gds) + gmb, -gmb}
		} else {
			// PMOS in magnitudes: isd = Ids(vs-vg, vs-vd, vb-vs),
			// normalized to ids = -isd (NMOS-sense drain->source). The
			// chain rule through the argument mapping flips each
			// partial's sign once and ids = -isd flips it again, so the
			// terminal derivative array has the same shape as NMOS:
			// ∂ids/∂vd=gds, ∂ids/∂vg=gm, ∂ids/∂vs=-(gm+gds)+gmb,
			// ∂ids/∂vb=-gmb, evaluated at the PMOS operating point.
			i0, gm, gds, gmb := m.dev.IdsDeriv(vs-vg, vs-vd, vb-vs)
			ids = -i0
			dIds = [4]float64{gds, gm, -(gm + gds) + gmb, -gmb}
		}
		if st != nil && st.icept != nil {
			// The hook sees the device's forward-sense current, exactly
			// as mosCurrents presents it.
			st.einfo.Device = m.name
			if m.dev.Kind == mosfet.NMOS {
				ids = st.icept(st.einfo, ids)
			} else {
				ids = -st.icept(st.einfo, -ids)
			}
		}
		evals++
		// Current into drain is -ids, into source +ids (NMOS sense; the
		// PMOS normalization above folds its polarity in).
		if ms.rowD >= 0 {
			rhs[ms.rowD] -= ids
			for t, s := range ms.dCols {
				if s >= 0 {
					aval[s] -= dIds[t]
				}
			}
		}
		if ms.rowS >= 0 {
			rhs[ms.rowS] += ids
			for t, s := range ms.sCols {
				if s >= 0 {
					aval[s] += dIds[t]
				}
			}
		}
	}
	if st != nil && st.res != nil {
		st.res.Evals += evals
	}

	// Resistors: current into a is (vb-va)·g.
	for ri := range e.ress {
		r := &e.ress[ri]
		ts := &sp.resS[ri]
		va, vb := at(r.a), at(r.b)
		i := (vb - va) * r.g
		if ts.rowA >= 0 {
			rhs[ts.rowA] += i
			aval[ts.aa] -= r.g
			if ts.ab >= 0 {
				aval[ts.ab] += r.g
			}
		}
		if ts.rowB >= 0 {
			rhs[ts.rowB] -= i
			aval[ts.bb] -= r.g
			if ts.ba >= 0 {
				aval[ts.ba] += r.g
			}
		}
	}

	// Floating capacitors, backward-Euler companion (transient only):
	// charging current out of a is c·((va-vpa)-(vb-vpb))/dt.
	if dt > 0 {
		atp := func(i int32) float64 {
			if i == groundIdx {
				return 0
			}
			return vprev[i]
		}
		for ci := range e.fcaps {
			c := &e.fcaps[ci]
			ts := &sp.capS[ci]
			g := c.f / dt
			ich := g * ((at(c.a) - atp(c.a)) - (at(c.b) - atp(c.b)))
			if ts.rowA >= 0 {
				rhs[ts.rowA] -= ich
				aval[ts.aa] -= g
				if ts.ab >= 0 {
					aval[ts.ab] += g
				}
			}
			if ts.rowB >= 0 {
				rhs[ts.rowB] += ich
				aval[ts.bb] -= g
				if ts.ba >= 0 {
					aval[ts.ba] += g
				}
			}
		}
	}
	return evals
}
