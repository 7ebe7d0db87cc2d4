package spice

import (
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/netlist"
)

// Kernel benchmarks: the DC-heavy paths (operating points, standby
// analysis, witness-style DC replay) under the numeric-probe dense
// oracle vs the analytic-stamp sparse Newton kernel. scripts/bench.sh
// renders these into BENCH_kernel.json; the custom metrics report the
// Newton-iteration and device-evaluation counts per solve so a speedup
// can be attributed (same iterations, cheaper iteration vs fewer
// iterations).

// engineFor compiles a gate-level circuit biased at one input vector
// and seeds node voltages from a logic evaluation — the same warm
// start the standby analysis and the experiments use.
func engineFor(b *testing.B, c *circuit.Circuit, inputs map[string]bool) (*Engine, map[string]float64) {
	b.Helper()
	nl, err := c.Netlist(circuit.Stimulus{Old: inputs, New: inputs})
	if err != nil {
		b.Fatal(err)
	}
	f, err := nl.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	e, err := Compile(f, c.Tech)
	if err != nil {
		b.Fatal(err)
	}
	vals, err := c.Evaluate(inputs)
	if err != nil {
		b.Fatal(err)
	}
	seed := make(map[string]float64, len(vals))
	for k, bit := range vals {
		if bit {
			seed[netlist.CanonNode(k)] = c.Tech.Vdd
		}
	}
	return e, seed
}

// warmSeed settles every strongly-driven node with a short coarse
// transient and returns the final voltages — the two-stage pattern the
// standby analysis uses before its Newton solve.
func warmSeed(b *testing.B, e *Engine, seed map[string]float64) map[string]float64 {
	b.Helper()
	res, err := e.Run(Options{TStop: 2e-6, DTMax: 0.2e-6, InitialV: seed})
	if err != nil {
		b.Fatal(err)
	}
	warm := make(map[string]float64, len(e.names))
	for _, name := range e.names {
		warm[name] = res.Traces[name].Final()
	}
	return warm
}

func benchOP(b *testing.B, e *Engine, seed map[string]float64, solver Solver) {
	b.Helper()
	b.ReportAllocs()
	iters, evals := 0, 0
	for i := 0; i < b.N; i++ {
		_, st, err := e.OperatingPointStats(seed, 0, solver)
		if err != nil {
			b.Fatal(err)
		}
		if st.FellBack {
			b.Fatal("sparse kernel fell back to dense")
		}
		iters += st.Iterations
		evals += st.Evals
	}
	b.ReportMetric(float64(iters)/float64(b.N), "newton-iters/op")
	b.ReportMetric(float64(evals)/float64(b.N), "mos-evals/op")
}

var kernelSolvers = []Solver{SolverDense, SolverSparse}

// BenchmarkKernelOPAdder: DC operating point of the 4-bit mirror adder
// (the scale where auto switches to sparse).
func BenchmarkKernelOPAdder(b *testing.B) {
	ad := circuits.RippleCarryAdder(tech07(), 4, 20e-15)
	ad.SleepWL = 20
	e, seed := engineFor(b, ad.Circuit, ad.Inputs(9, 6, false))
	for _, solver := range kernelSolvers {
		b.Run(solver.String(), func(b *testing.B) { benchOP(b, e, seed, solver) })
	}
}

// BenchmarkKernelOPMultiplier: DC operating point of the 4x4 carry-save
// multiplier from a transient-settled warm start — the largest DC
// solve the experiments run per size point, in the two-stage shape the
// standby analysis uses. (The paper's 8x8 instance is ~4x the nodes;
// dense grows cubically, so the gap widens further there.)
func BenchmarkKernelOPMultiplier(b *testing.B) {
	m := circuits.CarrySaveMultiplier(tech07(), 4, 15e-15)
	m.SleepWL = 40
	e, seed := engineFor(b, m.Circuit, m.Inputs(0xF, 0x9))
	warm := warmSeed(b, e, seed)
	for _, solver := range kernelSolvers {
		b.Run(solver.String(), func(b *testing.B) { benchOP(b, e, warm, solver) })
	}
}

// BenchmarkKernelStandby: the full standby-leakage analysis of the
// 3-bit adder (warm-up transient plus two Newton DC solves), the
// workload behind the standby experiment's per-size rows.
func BenchmarkKernelStandby(b *testing.B) {
	for _, solver := range kernelSolvers {
		b.Run(solver.String(), func(b *testing.B) {
			ad := circuits.RippleCarryAdder(tech07(), 3, 20e-15)
			ad.SleepWL = 20
			inputs := ad.Inputs(3, 0, false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := standbyWith(ad.Circuit, inputs, solver); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelWitnessReplay: many small DC solves — the shape of
// replaying prover witnesses through the operating-point solver
// (witness_op_test.go): bias a small deck and solve, repeatedly.
func BenchmarkKernelWitnessReplay(b *testing.B) {
	const deck = "witness replay\n" +
		"Vdd vdd 0 DC 1.2\n" +
		"Vs s 0 DC 1.2\n" +
		"Vt t 0 DC 1.2\n" +
		"Mpu x s vdd vdd pmos W=2.8u L=0.7u\n" +
		"Mpd x t 0 0 nmos W=1.4u L=0.7u\n" +
		"Mq y x vdd vdd pmos W=2.8u L=0.7u\n" +
		"Mr y x 0 0 nmos W=1.4u L=0.7u\n" +
		"Cl x 0 10f\n" +
		"C2 y 0 10f\n"
	nl, err := netlist.ParseString(deck)
	if err != nil {
		b.Fatal(err)
	}
	f, err := nl.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	e, err := Compile(f, tech07())
	if err != nil {
		b.Fatal(err)
	}
	for _, solver := range kernelSolvers {
		b.Run(solver.String(), func(b *testing.B) { benchOP(b, e, nil, solver) })
	}
}
