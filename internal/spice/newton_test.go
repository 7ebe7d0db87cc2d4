package spice

import (
	"math"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/mosfet"
)

// newtonDeck drives the mixed-element stamp deck's input through a
// full swing so the transient walks every device region.
const newtonDeck = `newton
Vdd vdd 0 DC 1.2
Vin a 0 PWL(0 0 0.5n 0 0.55n 1.2 1.5n 1.2 1.55n 0)
Vsl sleep 0 DC 1.2
Mp1 y a vdd vdd pmos W=2.8u L=0.7u
Mn1 y a vgnd 0 nmos W=1.4u L=0.7u
Mp2 z y vdd vdd pmos W=2.8u L=0.7u
Mn2 z y vgnd 0 nmos W=1.4u L=0.7u
Msl vgnd sleep 0 0 nmos_hvt W=7u L=0.7u
R1 y z 50k
C1 y 0 5f
C2 z vgnd 3f
Cl z 0 20f
`

// TestTransientSelfConvergence guards the step-growth thresholds in
// advance: a delay at default options must sit within maxErr of the
// same engine's delay at DTMax/16 and VTol/256. Relative errors
// measured on these cases, retuned thresholds (grow at <= 2 Newton
// iterations, halve above 5) vs the relaxation-era ones (<= 6 / > 20):
//
//	adder 0->11   0.12% vs 0.37%
//	mult  1->10   0.27% vs 3.14%
//	mult  2->11   0.00% vs 3.40%
//	mult  6->13   0.02% vs 5.06%
func TestTransientSelfConvergence(t *testing.T) {
	const maxErr = 0.01
	t07, t03 := mosfet.Tech07(), mosfet.Tech03()
	ad := circuits.RippleCarryAdder(&t07, 3, 20e-15)
	ad.SleepWL = 10
	var adOuts []string
	for _, n := range ad.Outputs() {
		adOuts = append(adOuts, n.Name)
	}
	m := circuits.CarrySaveMultiplier(&t03, 2, 15e-15)
	m.SleepWL = 20
	edge := func(old, new map[string]bool) circuit.Stimulus {
		return circuit.Stimulus{Old: old, New: new, TEdge: 1e-9, TRise: 50e-12}
	}
	cases := []struct {
		name string
		c    *circuit.Circuit
		stim circuit.Stimulus
		outs []string
	}{
		{"adder 0->11", ad.Circuit, edge(ad.Inputs(0, 0, false), ad.Inputs(3, 1, false)), adOuts},
		{"mult 1->10", m.Circuit, edge(m.Inputs(1, 0), m.Inputs(2, 2)), m.ProductNets},
		{"mult 2->11", m.Circuit, edge(m.Inputs(2, 0), m.Inputs(3, 2)), m.ProductNets},
		{"mult 6->13", m.Circuit, edge(m.Inputs(2, 1), m.Inputs(1, 3)), m.ProductNets},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			delay := func(o Options) float64 {
				t.Helper()
				o.TStop = 2.2e-9
				res, err := Run(tc.c, tc.stim, RunOptions{Options: o})
				if err != nil {
					t.Fatal(err)
				}
				d, _, err := res.MaxDelay(tc.outs)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			d := delay(Options{})
			tight := delay(Options{DTMax: 5e-12 / 16, VTol: 20e-6 / 256})
			if e := math.Abs(d-tight) / tight; e > maxErr {
				t.Errorf("delay %.4g s vs tight-tolerance %.4g s: error %.2f%% > %.0f%%",
					d, tight, 100*e, 100*maxErr)
			}
		})
	}
}

// TestTransientNewtonSparseMatchesDense pins the product sparse kernel
// to the dense numeric-probe oracle: identical iteration logic, only
// the Jacobian and the linear solve differ.
func TestTransientNewtonSparseMatchesDense(t *testing.T) {
	f := flatten(t, newtonDeck)
	run := func(solver Solver) *Result {
		t.Helper()
		e, err := Compile(f, tech07())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(Options{TStop: 2.5e-9, Solver: solver})
		if err != nil {
			t.Fatalf("solver %v: %v", solver, err)
		}
		return res
	}
	dense := run(SolverDense)
	sparse := run(SolverSparse)
	if dense.Steps == 0 || sparse.Steps == 0 {
		t.Fatal("no steps accepted")
	}
	for _, node := range []string{"y", "z", "vgnd"} {
		dt, st := dense.Trace(node), sparse.Trace(node)
		for _, at := range []float64{0.4e-9, 0.8e-9, 1.2e-9, 2.0e-9, 2.5e-9} {
			if d := math.Abs(dt.At(at) - st.At(at)); d > 1e-4 {
				t.Errorf("V(%s) at %g: dense %g vs sparse %g", node, at, dt.At(at), st.At(at))
			}
		}
	}
}
