package spice

import (
	"math"
	"math/rand"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
)

// stampDeck is a small MTCMOS block exercising every stamp kind: NMOS
// and PMOS in all regions, a sleep device with body effect on the
// virtual rail, resistors, grounded and floating capacitors.
const stampDeck = `stamp
Vdd vdd 0 DC 1.2
Vin a 0 DC 0.3
Vsl sleep 0 DC 1.2
Mp1 y a vdd vdd pmos W=2.8u L=0.7u
Mn1 y a vgnd 0 nmos W=1.4u L=0.7u
Mp2 z y vdd vdd pmos W=2.8u L=0.7u
Mn2 z y vgnd 0 nmos W=1.4u L=0.7u
Msl vgnd sleep 0 0 nmos_hvt W=7u L=0.7u
R1 y z 50k
C1 y 0 5f
C2 z vgnd 3f
`

// numericSystem probes the residual with central differences: the
// reference the analytic stamps must reproduce.
func numericSystem(e *Engine, v, vprev []float64, dt, gmin float64) (rhs []float64, jac [][]float64) {
	free := e.order
	nf := len(free)
	st := e.lease()
	defer e.release(st)
	st.res = &Result{}
	resid := func(k int) float64 {
		i := free[k]
		if dt > 0 {
			return e.residual(i, v, vprev, dt, gmin, st)
		}
		return e.deviceCurrentInto(i, v, nil) - gmin*v[i]
	}
	rhs = make([]float64, nf)
	jac = make([][]float64, nf)
	for k := range jac {
		jac[k] = make([]float64, nf)
		rhs[k] = resid(k)
	}
	const h = 1e-7
	for col, j := range free {
		old := v[j]
		v[j] = old + h
		for row := range jac {
			jac[row][col] = resid(row)
		}
		v[j] = old - h
		for row := range jac {
			jac[row][col] = (jac[row][col] - resid(row)) / (2 * h)
		}
		v[j] = old
	}
	return rhs, jac
}

func checkStampAgainstNumeric(t *testing.T, e *Engine, dt float64, seed int64) {
	t.Helper()
	sp := e.sparse()
	w := sp.lease()
	defer sp.release(w)
	rng := rand.New(rand.NewSource(seed))
	n := len(e.names)
	v := make([]float64, n)
	vprev := make([]float64, n)
	for trial := 0; trial < 8; trial++ {
		for i := 0; i < n; i++ {
			v[i] = rng.Float64() * e.tech.Vdd
			vprev[i] = v[i] + (rng.Float64()-0.5)*0.1
		}
		for _, s := range e.srcs {
			if s.node != groundIdx {
				v[s.node] = s.v.At(0)
			}
		}
		gmin := []float64{0, 1e-9, 1e-6}[trial%3]
		e.stampSystem(sp, w, v, vprev, dt, gmin, nil)
		nrhs, njac := numericSystem(e, v, vprev, dt, gmin)
		for k := range nrhs {
			if d := math.Abs(w.rhs[k] - nrhs[k]); d > 1e-12*(1+math.Abs(nrhs[k])) {
				t.Fatalf("trial %d: rhs[%d] stamped %g vs numeric %g", trial, k, w.rhs[k], nrhs[k])
			}
		}
		nf := len(e.order)
		for r := 0; r < nf; r++ {
			for c := 0; c < nf; c++ {
				s := sp.sym.slot(int32(r), int32(c))
				got := 0.0
				if s >= 0 {
					got = w.aval[s]
				}
				want := njac[r][c]
				// Central differences resolve ~6 digits; scale by the
				// row's largest conductance so tiny couplings in rows
				// dominated by big ones are not over-tested.
				rowScale := 0.0
				for cc := 0; cc < nf; cc++ {
					if a := math.Abs(njac[r][cc]); a > rowScale {
						rowScale = a
					}
				}
				if d := math.Abs(got - want); d > 1e-5*rowScale+1e-13 {
					t.Fatalf("trial %d: jac[%d][%d] (%s,%s) stamped %g vs numeric %g",
						trial, r, c, e.names[e.order[r]], e.names[e.order[c]], got, want)
				}
			}
		}
	}
}

// TestStampMatchesNumericJacobianDC pins the DC assembly against the
// numeric probe used by the dense oracle.
func TestStampMatchesNumericJacobianDC(t *testing.T) {
	e, err := Compile(flatten(t, stampDeck), tech07())
	if err != nil {
		t.Fatal(err)
	}
	checkStampAgainstNumeric(t, e, 0, 11)
}

// TestStampMatchesNumericJacobianTransient adds the backward-Euler
// companion stamps (grounded caps, floating caps, Cmin excluded — the
// engine's residual adds no Cmin either) and checks against
// Engine.residual.
func TestStampMatchesNumericJacobianTransient(t *testing.T) {
	e, err := Compile(flatten(t, stampDeck), tech07())
	if err != nil {
		t.Fatal(err)
	}
	checkStampAgainstNumeric(t, e, 2e-12, 23)
}

// TestStampMatchesNumericJacobianAdder runs the same agreement check on
// a generated MTCMOS ripple-carry adder: many devices per node, shared
// virtual ground, body effect everywhere.
func TestStampMatchesNumericJacobianAdder(t *testing.T) {
	ad := circuits.RippleCarryAdder(tech07(), 2, 20e-15)
	ad.SleepWL = 15
	inputs := ad.Inputs(2, 1, false)
	nl, err := ad.Circuit.Netlist(circuit.Stimulus{Old: inputs, New: inputs})
	if err != nil {
		t.Fatal(err)
	}
	flat, err := nl.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	e, err := Compile(flat, ad.Tech)
	if err != nil {
		t.Fatal(err)
	}
	checkStampAgainstNumeric(t, e, 0, 31)
	checkStampAgainstNumeric(t, e, 1e-12, 37)
}
