// Package simerr defines the failure taxonomy shared by the toolkit's
// simulation engines (internal/spice, internal/core) and everything
// that drives them (sizing searches, experiments, the CLI).
//
// Every runtime simulation failure is classified into one of five
// kinds, each a sentinel error usable with errors.Is:
//
//   - ErrNoConvergence: the solver exhausted its convergence-recovery
//     ladder (timestep back-off, damping, Gmin stepping, source
//     ramping) without finding a solution;
//   - ErrNumerical: a NaN or Inf appeared in the solution vector — the
//     run is numerically poisoned and stops immediately;
//   - ErrBudget: a caller-imposed budget (steps, events, device
//     evaluations, wall clock) ran out;
//   - ErrCancelled: the run's context was cancelled (Ctrl-C, parent
//     deadline);
//   - ErrInternal: the machinery around a run failed rather than the
//     simulation itself — a panicking sweep item, a crashed or hung
//     shard worker subprocess, a garbled worker protocol frame.
//
// Failures are reported as *Error values wrapping the sentinel and
// carrying diagnostics: the offending node or device, the simulated
// time and timestep, and iteration counts. Engines return the partial
// result computed up to the failure alongside the error, so callers
// can salvage waveforms (and the CLI can map kinds onto distinct exit
// codes).
package simerr

import (
	"errors"
	"fmt"
)

// The five failure kinds. Match with errors.Is against a returned
// error; the concrete value is always a *Error wrapping one of these.
var (
	ErrNoConvergence = errors.New("no convergence")
	ErrNumerical     = errors.New("numerical fault")
	ErrBudget        = errors.New("budget exhausted")
	ErrCancelled     = errors.New("cancelled")
	ErrInternal      = errors.New("internal fault")
)

// Error is a classified simulation failure with diagnostics.
type Error struct {
	Kind error  // one of the package sentinels
	Op   string // engine that failed: "spice" or "core"

	Node string  // offending node or device name, when known
	T    float64 // simulated time of the failure (seconds)
	Dt   float64 // timestep being attempted (spice; 0 if n/a)

	Sweeps int // Newton iterations spent over the whole run (spice)
	Steps  int // accepted timesteps (spice) or events (core) so far

	Msg string // free-form context
}

func (e *Error) Error() string {
	s := e.Op + ": " + e.Kind.Error()
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	if e.Node != "" {
		s += fmt.Sprintf(" (node %q)", e.Node)
	}
	if e.T > 0 || e.Dt > 0 {
		s += fmt.Sprintf(" at t=%.6g", e.T)
		if e.Dt > 0 {
			s += fmt.Sprintf(" dt=%.3g", e.Dt)
		}
	}
	return s
}

// Unwrap exposes the failure kind to errors.Is.
func (e *Error) Unwrap() error { return e.Kind }

// New builds a classified error for engine op.
func New(kind error, op, msg string) *Error {
	return &Error{Kind: kind, Op: op, Msg: msg}
}

// Kind returns the taxonomy sentinel err belongs to, or nil if err is
// not a classified simulation failure.
func Kind(err error) error {
	for _, k := range []error{ErrNoConvergence, ErrNumerical, ErrBudget, ErrCancelled, ErrInternal} {
		if errors.Is(err, k) {
			return k
		}
	}
	return nil
}

// IsRecoverable reports whether err is a per-simulation failure a
// caller may reasonably degrade around (convergence, numerical,
// budget, or an internal fault such as a crashed worker), as opposed
// to a cancellation that must propagate.
func IsRecoverable(err error) bool {
	return errors.Is(err, ErrNoConvergence) ||
		errors.Is(err, ErrNumerical) ||
		errors.Is(err, ErrBudget) ||
		errors.Is(err, ErrInternal)
}

// kindNames maps each sentinel onto its stable wire name, used by the
// shard-worker protocol to carry classified failures across process
// boundaries (internal/shard).
var kindNames = []struct {
	kind error
	name string
}{
	{ErrNoConvergence, "no-convergence"},
	{ErrNumerical, "numerical"},
	{ErrBudget, "budget"},
	{ErrCancelled, "cancelled"},
	{ErrInternal, "internal"},
}

// KindName returns the stable wire name of err's taxonomy kind, or ""
// when err is not a classified simulation failure.
func KindName(err error) string {
	for _, kn := range kindNames {
		if errors.Is(err, kn.kind) {
			return kn.name
		}
	}
	return ""
}

// KindFromName is the inverse of KindName: it returns the sentinel for
// a wire name, or nil for an unknown or empty name.
func KindFromName(name string) error {
	for _, kn := range kindNames {
		if kn.name == name {
			return kn.kind
		}
	}
	return nil
}
