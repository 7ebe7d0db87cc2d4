package spice

import (
	"fmt"

	"mtcmos/internal/circuit"
	"mtcmos/internal/netlist"
)

// StandbyResult reports the reference-engine sleep-mode analysis of an
// MTCMOS circuit: where the virtual ground floats to when the sleep
// device turns off, and the resulting leakage versus active mode.
type StandbyResult struct {
	// VGndFloat is the steady-state virtual-ground voltage in standby:
	// the self-reverse-bias that quenches the logic's subthreshold
	// leakage (the internal state collapses toward the rails and the
	// high-Vt device limits the remaining current).
	VGndFloat float64
	// Standby is the steady-state supply current with the sleep device
	// off; Active is the same with the device on.
	Standby float64
	Active  float64
	// Reduction is Active / Standby.
	Reduction float64
}

// Standby computes the sleep-mode operating point of an MTCMOS circuit
// with the reference engine's full-Newton DC solver. The floating
// virtual ground and every node riding on it form a collective slow
// mode that a microseconds-long transient settles only slowly, so this
// is a genuine DC analysis: gmin-stepped Newton over the whole network
// (see engine.OperatingPoint).
func Standby(c *circuit.Circuit, inputs map[string]bool) (*StandbyResult, error) {
	return standbyWith(c, inputs, SolverAuto)
}

// standbyWith is Standby with an explicit linear-kernel choice for the
// DC solves, so the kernel tests and benchmarks can compare dense and
// sparse. The warm-up transient always uses the product kernel.
func standbyWith(c *circuit.Circuit, inputs map[string]bool, solver Solver) (*StandbyResult, error) {
	if c.SleepWL <= 0 {
		return nil, fmt.Errorf("spice: standby analysis needs a sleep device")
	}
	vals, err := c.Evaluate(inputs)
	if err != nil {
		return nil, err
	}
	seed := make(map[string]float64, len(vals))
	for k, b := range vals {
		if b {
			seed[netlist.CanonNode(k)] = c.Tech.Vdd
		}
	}

	solve := func(sleepOff bool, seed map[string]float64) (*Engine, []float64, error) {
		nl, err := c.Netlist(circuit.Stimulus{Old: inputs, New: inputs, SleepOff: sleepOff})
		if err != nil {
			return nil, nil, err
		}
		flat, err := nl.Flatten()
		if err != nil {
			return nil, nil, err
		}
		e, err := Compile(flat, c.Tech)
		if err != nil {
			return nil, nil, err
		}
		// Two-stage solve: a short coarse transient settles every
		// individually-anchored node (strong conduction paths), giving
		// the full Newton a consistent starting point from which only
		// the collective floating-rail mode remains to move.
		res, err := e.Run(Options{TStop: 2e-6, DTMax: 0.2e-6, InitialV: seed})
		if err != nil {
			return nil, nil, err
		}
		warm := make(map[string]float64, len(e.names))
		for _, name := range e.names {
			warm[name] = res.Traces[name].Final()
		}
		v, err := e.OperatingPointWith(warm, 0, solver)
		if err != nil {
			return nil, nil, err
		}
		return e, v, nil
	}

	out := &StandbyResult{}
	e, v, err := solve(false, seed)
	if err != nil {
		return nil, err
	}
	if i, ok := e.SupplyCurrent(v, circuit.NodeVdd); ok {
		out.Active = i
	}

	// Standby: seed the floating cluster high so Newton starts near
	// the collapsed state.
	sleepSeed := make(map[string]float64, len(seed)+8)
	for k, x := range seed {
		sleepSeed[k] = x
	}
	sleepSeed[circuit.NodeVGnd] = 0.8 * c.Tech.Vdd
	e, v, err = solve(true, sleepSeed)
	if err != nil {
		return nil, err
	}
	if x, ok := e.NodeVoltage(v, circuit.NodeVGnd); ok {
		out.VGndFloat = x
	}
	if i, ok := e.SupplyCurrent(v, circuit.NodeVdd); ok {
		out.Standby = i
	}
	if out.Standby > 0 {
		out.Reduction = out.Active / out.Standby
	}
	return out, nil
}
