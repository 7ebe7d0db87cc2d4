package faultinject

import (
	"errors"
	"slices"
	"testing"

	"mtcmos/internal/simerr"
	"mtcmos/internal/spice"
)

// These tests rerun the recovery-ladder proofs with the transient
// kernel named explicitly (Options.Solver = SolverSparse, the selection
// callers such as the perfbench reference workload pass). SolverSparse
// and the zero value must be one and the same sparse Newton kernel, so
// each run must match the default-path run exactly: same rung counts,
// same accepted waveform.

// sameRun requires the explicit-kernel run to reproduce the default
// run bit for bit.
func sameRun(t *testing.T, sparse, def *spice.Result) {
	t.Helper()
	if sparse.Recovery != def.Recovery {
		t.Errorf("SolverSparse recovery %+v, default %+v", sparse.Recovery, def.Recovery)
	}
	s, d := sparse.Trace("out"), def.Trace("out")
	if !slices.Equal(s.T, d.T) || !slices.Equal(s.V, d.V) {
		t.Errorf("SolverSparse waveform (%d samples) differs from the default (%d samples)",
			s.Len(), d.Len())
	}
}

func TestBaselineConvergesSparseNewton(t *testing.T) {
	res, err := runWith(t, New(), spice.Options{Solver: spice.SolverSparse})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Rescued != 0 {
		t.Errorf("clean run must not need rescue, stats %+v", res.Recovery)
	}
	if v := res.Trace("out").At(2.5e-9); v > 0.6 {
		t.Errorf("final V(out) = %g, inverter must have switched low", v)
	}
	def, err := runWith(t, New(), spice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameRun(t, res, def)
}

// TestEachRungRescuesSparseNewton seeds the rungCases faults with the
// kernel selected explicitly: each rung must rescue its seeded failure
// and the rescue must retrace the default run.
func TestEachRungRescuesSparseNewton(t *testing.T) {
	for _, tc := range rungCases {
		t.Run(tc.name, func(t *testing.T) {
			inj := New(tc.fault)
			res, err := runWith(t, inj, spice.Options{Solver: spice.SolverSparse})
			if err != nil {
				t.Fatalf("run must be rescued by %v, got %v", tc.fault.ClearAtRung, err)
			}
			if inj.Hits(0) == 0 {
				t.Fatal("fault never perturbed an evaluation")
			}
			tc.check(t, res.Recovery)
			if v := res.Trace("out").At(2.5e-9); v > 0.6 {
				t.Errorf("final V(out) = %g, rescued run lost the waveform", v)
			}
			def, err := runWith(t, New(tc.fault), spice.Options{})
			if err != nil {
				t.Fatalf("default run must be rescued too, got %v", err)
			}
			sameRun(t, res, def)
		})
	}
}

// TestNaNFailsFastSparseNewton: with the kernel selected explicitly,
// injected NaN must fail fast with the node named, at the same time and
// after the same partial waveform as on the default path.
func TestNaNFailsFastSparseNewton(t *testing.T) {
	inj := New(Fault{Kind: NaN, Device: "mn", Start: 1.2e-9})
	res, err := runWith(t, inj, spice.Options{Solver: spice.SolverSparse})
	if !errors.Is(err, simerr.ErrNumerical) {
		t.Fatalf("want ErrNumerical, got %v", err)
	}
	var se *simerr.Error
	if !errors.As(err, &se) {
		t.Fatalf("error must be a *simerr.Error, got %T", err)
	}
	if se.Node != "out" {
		t.Errorf("error must name the poisoned node, got %q", se.Node)
	}
	if res == nil || res.Trace("out").Len() < 2 {
		t.Fatal("partial result must carry the pre-failure waveform")
	}
	def, defErr := runWith(t, New(Fault{Kind: NaN, Device: "mn", Start: 1.2e-9}), spice.Options{})
	var dse *simerr.Error
	if !errors.As(defErr, &dse) {
		t.Fatalf("default run must fail with a *simerr.Error, got %v", defErr)
	}
	if dse.T != se.T || dse.Node != se.Node {
		t.Errorf("SolverSparse failed at %g on %q, default at %g on %q",
			se.T, se.Node, dse.T, dse.Node)
	}
	sameRun(t, res, def)
}
