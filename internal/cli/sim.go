package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mtcmos"
	"mtcmos/internal/lint"
	"mtcmos/internal/shard"
)

// Sim implements the mtsim command: simulate one input-vector
// transition on a benchmark circuit or a raw netlist deck.
func Sim(args []string, w io.Writer) error {
	return SimContext(context.Background(), args, w)
}

// SimContext is Sim under a caller context: cancelling ctx aborts the
// simulation between solver steps with a partial-result error that
// maps to ExitCancelled.
func SimContext(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("mtsim", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		circ    = fs.String("circuit", "tree", "benchmark circuit: tree | chain | adder | mult")
		netFile = fs.String("netlist", "", "simulate a raw SPICE-dialect deck instead of a benchmark circuit")
		techF   = fs.String("tech", "", "technology: 0.7 | 0.3 (defaults to the circuit's paper node)")
		wlS     = fs.String("wl", "10", "sleep transistor W/L (0 = plain CMOS); a comma-separated list sweeps the sizes on the parallel executor (vbs engine)")
		jobs    = fs.Int("j", 0, "parallel workers for a -wl sweep (0 = one per CPU, 1 = serial)")
		cx      = fs.Float64("cx", 0, "virtual-ground parasitic capacitance (farads)")
		engine  = fs.String("engine", "vbs", "simulation engine: vbs (switch-level) | spice (reference)")
		oldV    = fs.String("old", "", "old input vector (circuit-specific, e.g. '0,1' or '7f,81'; tree: 0|1)")
		newV    = fs.String("new", "", "new input vector")
		bits    = fs.Int("bits", 0, "operand width for adder/mult (defaults 3 / 8)")
		traceS  = fs.String("trace", "", "comma-separated nets to print waveforms for")
		plot    = fs.Bool("plot", false, "ASCII-plot traced waveforms")
		tstop   = fs.String("tstop", "", "simulation horizon for the reference engine (e.g. 20n)")
		rev     = fs.Bool("reverse", false, "model reverse conduction (switch-level only)")
		nobody  = fs.Bool("nobody", false, "disable the body effect (switch-level only)")
		csvDir  = fs.String("csvout", "", "directory to write traced waveforms as CSV files")
		nolint  = fs.Bool("nolint", false, "skip the pre-simulation lint pass (mtlint rules)")
		timeout = fs.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited; overruns exit 4)")
		maxStep = fs.Int("max-steps", 0, "cap accepted timesteps (spice) / events (vbs); 0 = unlimited, overruns exit 4")
		shards  = fs.Int("shards", 0, "split a -wl sweep over N shards on worker subprocesses (0 = in-process); output is identical for any value")
		resume  = fs.String("resume", "", "checkpoint a sharded sweep to this journal and resume from it if it exists (implies sharded execution)")
		hosts   = fs.String("hosts", "", "run sweep shards on remote mtworkd daemons: comma-separated host:port list, or @file with one per line (implies sharded execution); output is identical to a local run")
		authF   = fs.String("auth", os.Getenv("MTWORKD_AUTH"), "shared secret for -hosts daemons started with mtworkd -auth (default $MTWORKD_AUTH)")
		worker  = fs.Bool("worker", false, "run as a shard worker subprocess (internal; speaks the shard protocol on stdin/stdout)")
		version = versionFlag(fs)
		profF   = addProfileFlags(fs)
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *version {
		printVersion(w, "mtsim")
		return nil
	}
	if *worker {
		return shard.ServeWorker(ctx, os.Stdin, w)
	}
	prof, err := profF.start()
	if err != nil {
		return err
	}
	defer prof.stop(&err)
	ctx, cancel := budgetCtx(ctx, *timeout)
	defer cancel()

	if *netFile != "" {
		return runNetlist(ctx, w, *netFile, *techF, *tstop, *traceS, *plot, *nolint, *maxStep)
	}

	var wls []float64
	for _, part := range strings.Split(*wlS, ",") {
		v, err := parseValue(part)
		if err != nil {
			return fmt.Errorf("bad -wl %q: %w", part, err)
		}
		wls = append(wls, v)
	}

	c, stim, outs, err := buildCircuit(*circ, *bits, *oldV, *newV)
	if err != nil {
		return err
	}
	c.SleepWL = wls[0]
	c.VGndCap = *cx
	if !*nolint {
		if err := lintCircuit(c, stim.Old, stim.New); err != nil {
			return err
		}
	}

	if len(wls) > 1 {
		if *engine != "vbs" {
			return fmt.Errorf("-wl sweeps support the vbs engine only (got %q)", *engine)
		}
		p := sweepTaskParams{
			Circuit: *circ, Bits: *bits, Old: *oldV, New: *newV,
			Cx: *cx, WLs: wls, Rev: *rev, NoBody: *nobody,
			MaxStep: *maxStep, Workers: *jobs,
		}
		var runner *shard.Runner
		if *shards > 0 || *resume != "" || *hosts != "" {
			opts := shard.Options{
				Shards:  *shards,
				Procs:   *jobs,
				Spawn:   shard.SelfSpawner("-worker"),
				Journal: *resume,
			}
			if *hosts != "" {
				opts.Transport, err = hostsTransport(*hosts, *authF)
				if err != nil {
					return err
				}
			}
			runner = &shard.Runner{Opts: opts}
			// The worker pool is the parallelism; each worker computes
			// its shard serially.
			p.Workers = 1
		}
		return runSweep(ctx, w, p, runner)
	}

	switch *engine {
	case "vbs":
		opts := mtcmos.SwitchOptions{
			ReverseConduction: *rev, NoBodyEffect: *nobody,
			Ctx: ctx, MaxEvents: *maxStep,
		}
		if *traceS != "" {
			opts.TraceNets = strings.Split(*traceS, ",")
		}
		res, err := mtcmos.Simulate(c, stim, opts)
		if err != nil {
			return err
		}
		printVBS(w, res, outs, *plot)
		if *csvDir != "" {
			for name, pw := range res.Waves {
				if err := writeCSVFile(*csvDir, name, pw.WriteCSV); err != nil {
					return err
				}
			}
			if res.VGnd != nil {
				if err := writeCSVFile(*csvDir, "vgnd", res.VGnd.WriteCSV); err != nil {
					return err
				}
			}
		}
		return nil
	case "spice":
		ts := 20e-9
		if *tstop != "" {
			v, err := parseValue(*tstop)
			if err != nil {
				return err
			}
			ts = v
		}
		ropts := mtcmos.SpiceOptions{Options: mtcmos.EngineOptions{
			TStop: ts, SampleDT: 20e-12, Ctx: ctx, MaxSteps: *maxStep,
		}}
		if *traceS != "" {
			ropts.RecordNets = strings.Split(*traceS, ",")
			ropts.RecordNets = append(ropts.RecordNets, outs...)
		}
		res, err := mtcmos.SimulateSpice(c, stim, ropts)
		if err != nil {
			return err
		}
		printSpice(w, c, res, outs, *traceS, *plot)
		if *csvDir != "" {
			for name, tr := range res.Traces {
				if err := writeCSVFile(*csvDir, name, tr.WriteCSV); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}
}

// sweepTaskParams configures the cli.sweep shard task: everything a
// worker subprocess needs to rebuild the circuit and compute a slice
// of the -wl sweep.
type sweepTaskParams struct {
	Circuit string    `json:"circuit"`
	Bits    int       `json:"bits"`
	Old     string    `json:"old"`
	New     string    `json:"new"`
	Cx      float64   `json:"cx"`
	WLs     []float64 `json:"wls"`
	Rev     bool      `json:"rev"`
	NoBody  bool      `json:"nobody"`
	MaxStep int       `json:"maxstep"`
	Workers int       `json:"workers"`
}

func init() {
	shard.Register("cli.sweep", sweepTask)
}

// sweepTask computes one slice of a -wl sweep; each item is the
// formatted table row for one sleep size, so the merged table is
// byte-identical however the sweep was partitioned.
func sweepTask(ctx context.Context, params json.RawMessage, start, count int) ([]json.RawMessage, error) {
	var p sweepTaskParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, err
	}
	c, stim, outs, err := buildCircuit(p.Circuit, p.Bits, p.Old, p.New)
	if err != nil {
		return nil, err
	}
	c.SleepWL = p.WLs[0]
	c.VGndCap = p.Cx
	cp, err := mtcmos.CompileCircuit(c)
	if err != nil {
		return nil, err
	}
	slice := p.WLs[start : start+count]
	results, err := mtcmos.SimulateSweep(cp, slice, stim, mtcmos.BatchOptions{
		Workers: p.Workers,
		Sim: mtcmos.SwitchOptions{
			ReverseConduction: p.Rev, NoBodyEffect: p.NoBody,
			Ctx: ctx, MaxEvents: p.MaxStep,
		},
	})
	if err != nil {
		return nil, err
	}
	items := make([]json.RawMessage, len(results))
	for i, res := range results {
		worst, worstNet := 0.0, "-"
		for _, n := range outs {
			if d, ok := res.Delay(n); ok && d > worst {
				worst, worstNet = d, n
			}
		}
		row := fmt.Sprintf("%g\t%.4g\t%s\t%.1f\t%d", slice[i], worst*1e9, worstNet, res.PeakVx*1e3, res.Events)
		if items[i], err = json.Marshal(row); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// runSweep runs one stimulus across several sleep sizes and prints a
// per-size summary table. The sweep always goes through the shard
// executor's single code path — in-process as one shard by default,
// over worker subprocesses when a runner is configured — which is
// what makes sharded and serial output trivially identical.
func runSweep(ctx context.Context, w io.Writer, p sweepTaskParams, runner *shard.Runner) error {
	var res *shard.Result
	var err error
	if runner != nil {
		res, err = runner.Run(ctx, "cli.sweep", p, len(p.WLs))
	} else {
		res, err = shard.Run(ctx, "cli.sweep", p, len(p.WLs), shard.Options{Shards: 1, Procs: 1})
	}
	if err != nil {
		return err
	}
	tb := &mtcmos.Table{Title: "Switch-level sleep-size sweep", Columns: []string{"W/L", "worst_delay_ns", "worst_net", "peakVx_mV", "events"}}
	quarantined := 0
	for i, raw := range res.Items {
		if raw == nil {
			// The shard covering this size was quarantined: degrade to
			// a marked row instead of failing the sweep.
			quarantined++
			tb.Addf("%g\tquarantined\t-\t-\t-", p.WLs[i])
			continue
		}
		var row string
		if err := json.Unmarshal(raw, &row); err != nil {
			return err
		}
		tb.AddRow(strings.Split(row, "\t")...)
	}
	fmt.Fprintln(w, tb.String())
	if quarantined > 0 {
		fmt.Fprintf(w, "note: %d sweep points skipped (quarantined shards; see -resume to retry)\n", quarantined)
	}
	return nil
}

func parseUint(s string, base int) (uint64, error) {
	return strconv.ParseUint(strings.TrimSpace(s), base, 64)
}

// parseValue accepts engineering suffixes (20n, 5p).
func parseValue(s string) (float64, error) {
	mult := 1.0
	s = strings.TrimSpace(strings.ToLower(s))
	if len(s) > 0 {
		switch s[len(s)-1] {
		case 'f':
			mult, s = 1e-15, s[:len(s)-1]
		case 'p':
			mult, s = 1e-12, s[:len(s)-1]
		case 'n':
			mult, s = 1e-9, s[:len(s)-1]
		case 'u':
			mult, s = 1e-6, s[:len(s)-1]
		case 'm':
			mult, s = 1e-3, s[:len(s)-1]
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	return v * mult, err
}

func buildCircuit(kind string, bits int, oldS, newS string) (*mtcmos.Circuit, mtcmos.Stimulus, []string, error) {
	stim := mtcmos.Stimulus{TEdge: 1e-9, TRise: 50e-12}
	switch kind {
	case "tree":
		tech := mtcmos.Tech07()
		c := mtcmos.InverterTree(&tech, 3, 3, 50e-15)
		o := oldS != "1"
		stim.Old = map[string]bool{"in": !o}
		stim.New = map[string]bool{"in": newS != "0"}
		return c, stim, outNames(c), nil
	case "chain":
		tech := mtcmos.Tech07()
		n := bits
		if n == 0 {
			n = 4
		}
		c := mtcmos.InverterChain(&tech, n, 20e-15)
		stim.Old = map[string]bool{"in": oldS == "1"}
		stim.New = map[string]bool{"in": newS != "0"}
		return c, stim, outNames(c), nil
	case "adder":
		tech := mtcmos.Tech07()
		if bits == 0 {
			bits = 3
		}
		ad := mtcmos.RippleCarryAdder(&tech, bits, 20e-15)
		oa, ob, err := pair(oldS, 10, 0, 0)
		if err != nil {
			return nil, stim, nil, err
		}
		na, nb, err := pair(newS, 10, 7, 5)
		if err != nil {
			return nil, stim, nil, err
		}
		stim.Old = ad.Inputs(oa, ob, false)
		stim.New = ad.Inputs(na, nb, false)
		return ad.Circuit, stim, outNames(ad.Circuit), nil
	case "mult":
		tech := mtcmos.Tech03()
		if bits == 0 {
			bits = 8
		}
		m := mtcmos.CarrySaveMultiplier(&tech, bits, 15e-15)
		ox, oy, err := pair(oldS, 16, 0, 0)
		if err != nil {
			return nil, stim, nil, err
		}
		mask := uint64(1)<<uint(bits) - 1
		nx, ny, err := pair(newS, 16, mask, (1|1<<uint(bits-1))&mask)
		if err != nil {
			return nil, stim, nil, err
		}
		stim.Old = m.Inputs(ox, oy)
		stim.New = m.Inputs(nx, ny)
		return m.Circuit, stim, m.ProductNets, nil
	default:
		return nil, stim, nil, fmt.Errorf("unknown circuit %q (tree|chain|adder|mult)", kind)
	}
}

// writeCSVFile writes one waveform CSV into dir, creating it if
// needed; net names are sanitized into file names.
func writeCSVFile(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
	f, err := os.Create(filepath.Join(dir, safe+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

// pair parses "a,b" in the given base, with defaults when empty.
func pair(s string, base int, da, db uint64) (uint64, uint64, error) {
	if s == "" {
		return da, db, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("vector %q must be 'a,b'", s)
	}
	a, err := parseUint(parts[0], base)
	if err != nil {
		return 0, 0, err
	}
	b, err := parseUint(parts[1], base)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func outNames(c *mtcmos.Circuit) []string {
	var out []string
	for _, n := range c.Outputs() {
		out = append(out, n.Name)
	}
	return out
}

func printVBS(w io.Writer, res *mtcmos.SwitchResult, outs []string, plot bool) {
	fmt.Fprintf(w, "events: %d  (switch-level breakpoints)\n", res.Events)
	worst, worstNet := 0.0, ""
	for _, n := range outs {
		if d, ok := res.Delay(n); ok {
			fmt.Fprintf(w, "delay %-12s %.4g ns\n", n, d*1e9)
			if d > worst {
				worst, worstNet = d, n
			}
		}
	}
	if worstNet != "" {
		fmt.Fprintf(w, "worst delay: %.4g ns on %s\n", worst*1e9, worstNet)
	} else {
		fmt.Fprintln(w, "no observed output toggled")
	}
	if res.VGnd != nil {
		fmt.Fprintf(w, "virtual ground peak: %.1f mV; sleep current peak: %.4g mA\n",
			res.PeakVx*1e3, res.PeakISleep*1e3)
	}
	if res.NoiseMarginLoss > 0 {
		fmt.Fprintf(w, "noise margin loss (reverse conduction): %.1f mV\n", res.NoiseMarginLoss*1e3)
	}
	for name, pw := range res.Waves {
		fmt.Fprintf(w, "wave %s: %d breakpoints, final %.3g V\n", name, len(pw.T), pw.Final())
		if plot {
			plotPWL(w, name, pw)
		}
	}
}

func plotPWL(w io.Writer, name string, p *mtcmos.PWL) {
	s := newSeries(name)
	end := p.End()
	for i := 0; i <= 60; i++ {
		t := end * float64(i) / 60
		s.Add(t*1e9, p.At(t))
	}
	fmt.Fprintln(w, s.Plot(64, 12))
}

func newSeries(name string) *mtcmos.Series {
	s := &mtcmos.Series{Title: name, XLabel: "t_ns", YLabels: []string{"V"}}
	return s
}

func printSpice(w io.Writer, c *mtcmos.Circuit, res *mtcmos.SpiceResult, outs []string, traced string, plot bool) {
	fmt.Fprintf(w, "steps: %d  newton iterations: %d  device evals: %d\n", res.Steps, res.Sweeps, res.Evals)
	worst, worstNet := 0.0, ""
	for _, n := range outs {
		if d, err := res.Delay(n); err == nil {
			fmt.Fprintf(w, "delay %-12s %.4g ns\n", n, d*1e9)
			if d > worst {
				worst, worstNet = d, n
			}
		}
	}
	if worstNet != "" {
		fmt.Fprintf(w, "worst delay: %.4g ns on %s\n", worst*1e9, worstNet)
	}
	if vg := res.VGndTrace(); vg != nil {
		pv, pt := vg.Peak(0, 1)
		fmt.Fprintf(w, "virtual ground peak: %.1f mV at %.3g ns\n", pv*1e3, pt*1e9)
	}
	if traced != "" {
		for _, n := range strings.Split(traced, ",") {
			tr := res.OutTrace(n)
			if tr == nil {
				continue
			}
			fmt.Fprintf(w, "trace %s: %d samples, final %.3g V\n", n, tr.Len(), tr.Final())
			if plot {
				s := newSeries(n)
				for i := 0; i < tr.Len(); i += 1 + tr.Len()/60 {
					s.Add(tr.T[i]*1e9, tr.V[i])
				}
				fmt.Fprintln(w, s.Plot(64, 12))
			}
		}
	}
}

func runNetlist(ctx context.Context, w io.Writer, path, techF, tstop, traced string, plot, nolint bool, maxSteps int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	nl, err := mtcmos.ParseNetlist(f)
	if err != nil {
		return err
	}
	tech := mtcmos.Tech07()
	if techF == "0.3" {
		tech = mtcmos.Tech03()
	}
	if !nolint {
		if err := failOnLintErrors(lint.Run(nl, nil, &tech), "deck "+path); err != nil {
			return err
		}
	}
	ts := 10e-9
	if tstop != "" {
		v, err := parseValue(tstop)
		if err != nil {
			return err
		}
		ts = v
	}
	opts := mtcmos.EngineOptions{TStop: ts, SampleDT: 20e-12, Ctx: ctx, MaxSteps: maxSteps}
	if traced != "" {
		opts.Record = strings.Split(traced, ",")
	}
	res, err := mtcmos.SimulateNetlist(nl, &tech, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "steps: %d  newton iterations: %d\n", res.Steps, res.Sweeps)
	for name, tr := range res.Traces {
		fmt.Fprintf(w, "node %-14s final %.4g V (%d samples)\n", name, tr.Final(), tr.Len())
		if plot {
			s := newSeries(name)
			for i := 0; i < tr.Len(); i += 1 + tr.Len()/60 {
				s.Add(tr.T[i]*1e9, tr.V[i])
			}
			fmt.Fprintln(w, s.Plot(64, 12))
		}
	}
	return nil
}
