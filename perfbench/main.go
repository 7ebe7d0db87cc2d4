// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload: it sets up from the seed alone, runs the
// workload's fixed job list serially (one client, closed loop) several
// times, checks every job's output, and prints one JSON line of
// metrics last.
//
//	bash perfbench/run.sh --workload sizing|reference|prove --seed N --seconds S --trace 0|1
//	go run ./perfbench -gen-reference   # recompute perfbench/reference.json
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json.
// With --trace 1 half the passes record a span around every call into
// a layer and the metrics are the per-layer set; the spans are written
// to .bench_build/perfbench/.
//
// Noise controls: a pass repeats the identical job list; runtime.GC runs
// before every pass; each job's time is the least over the passes that
// ran it; set-up is timed in rounds spread over the whole run (see
// setupClock).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupClock times set-up in rounds, before every pass and after any
// job that ends a second or more after the last round. A round times
// one set-up per group; each group keeps its least time, and setup_s is
// the median over groups. Spreading the rounds lets every group see the
// host's fast and slow spells (a few-ms set-up moved 40% between runs
// when it was timed only at pass starts).
type setupClock struct {
	least  [5]time.Duration
	last   time.Time
	allocB uint64 // bytes the rounds allocated, kept out of alloc_mb
}

// round runs one set-up per group, with tracing off, and returns the
// last set-up's jobs.
func (c *setupClock) round(w workload, seed int64, tr *tracer) ([]job, error) {
	on := tr.on
	tr.on = false
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	defer func() {
		runtime.ReadMemStats(&m1)
		c.allocB += m1.TotalAlloc - m0.TotalAlloc
		tr.on = on
	}()
	var jobs []job
	for g := range c.least {
		start := time.Now()
		js, err := w.setup(seed, tr)
		if d := time.Since(start); c.least[g] == 0 || d < c.least[g] {
			c.least[g] = d
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		jobs = js
	}
	c.last = time.Now()
	return jobs, nil
}

func (c *setupClock) median() float64 {
	v := make([]float64, len(c.least))
	for g, d := range c.least {
		v[g] = d.Seconds()
	}
	return median(v)
}

func main() {
	name := flag.String("workload", "", "workload: sizing | reference | prove")
	seed := flag.Int64("seed", 1, "workload seed; the job list is generated from it alone")
	seconds := flag.Int("seconds", 30, "nominal measuring time; sets the number of passes")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	gen := flag.Bool("gen-reference", false, "recompute "+refPath+" and exit")
	flag.Parse()

	if *gen {
		if err := generateReference(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sizing|reference|prove, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	spans := fmt.Sprintf(".bench_build/perfbench/trace-%s-seed%d.jsonl", w.name, *seed)
	rep, err := run(*w, *seed, *seconds, *trace == 1, os.Stdout, spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// side holds what the passes of one kind (untraced or traced) measured.
type side struct {
	passes int
	least  []time.Duration // per job, least over this side's passes
	alloc  []float64       // bytes allocated per pass
	gc     []float64       // GC cycles per pass
	counts map[string]float64
}

func (s *side) passS() float64 {
	t := 0.0
	for _, d := range s.least {
		t += d.Seconds()
	}
	return t
}

// passCount is how many passes of each kind a run makes.
func passCount(w workload, seconds int, traced bool) (untraced, tracedPasses int) {
	n := max(2, int(float64(seconds)/w.passS+0.5))
	if !traced {
		return n, 0
	}
	half := max(2, (n+1)/2)
	return half, half
}

// run measures one workload and writes per-job outcomes and a metric
// table to out, and a traced run's spans to spansPath; the returned
// report is the final JSON line.
func run(w workload, seed int64, seconds int, traced bool, out io.Writer, spansPath string) (*report, error) {
	tr := newTracer()
	nu, nt := passCount(w, seconds, traced)

	// One traced set-up records the set-up spans; it is not timed.
	var setupCounts map[string]float64
	if traced {
		tr.on = true
		if _, err := w.setup(seed, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupCounts, tr.counts = tr.counts, map[string]float64{}
	}

	var (
		sides    [2]side
		clock    setupClock
		outcomes []outcome
		labels   []string
		unsteady = map[int]bool{}
	)
	for p := 0; p < nu+nt; p++ {
		// Alternate the two kinds so host-speed drift hits both alike.
		kind := 0
		if traced && p%2 == 1 {
			kind = 1
		}
		s := &sides[kind]

		runtime.GC()
		jobs, err := clock.round(w, seed, tr)
		if err != nil {
			return nil, err
		}
		if outcomes == nil {
			outcomes = make([]outcome, len(jobs))
			for _, jb := range jobs {
				labels = append(labels, jb.label)
			}
		} else if len(jobs) != len(outcomes) {
			return nil, fmt.Errorf("set-up made %d jobs, earlier %d", len(jobs), len(outcomes))
		}
		if s.least == nil {
			s.least = make([]time.Duration, len(jobs))
		}

		tr.on, tr.pass, tr.counts = kind == 1, p, map[string]float64{}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		setupB := clock.allocB
		passStart := time.Now()
		for j, jb := range jobs {
			tr.job, tr.probe = j, 0
			start := time.Now()
			o := jb.run(tr)
			d := time.Since(start) - tr.probe
			if s.passes == 0 || d < s.least[j] {
				s.least[j] = d
			}
			if p == 0 {
				outcomes[j] = o
			} else if !sameOutcome(outcomes[j], o) {
				unsteady[j] = true
			}
			if time.Since(clock.last) >= time.Second {
				if _, err := clock.round(w, seed, tr); err != nil {
					return nil, err
				}
			}
		}
		runtime.ReadMemStats(&m1)
		fmt.Fprintf(out, "pass %d traced=%v %.4f s\n", p, tr.on, time.Since(passStart).Seconds())
		s.alloc = append(s.alloc, float64(m1.TotalAlloc-m0.TotalAlloc-(clock.allocB-setupB)))
		s.gc = append(s.gc, float64(m1.NumGC-m0.NumGC))
		s.counts = keepLeast(s.counts, tr.counts)
		s.passes++
	}

	rep := &report{Correct: true, Attempted: len(outcomes)}
	for j, o := range outcomes {
		status := "ok"
		switch {
		case unsteady[j]:
			status = "check-failed: outcome differed between passes"
			rep.Correct = false
		case o.check != nil:
			status = "check-failed: " + oneLine(o.check)
			rep.Correct = false
		case o.err != nil:
			status = "error: " + oneLine(o.err)
		}
		if status != "ok" {
			rep.Failed++
		}
		fmt.Fprintf(out, "job %02d %-24s %s | %s | least_ms=%.3f\n",
			j, labels[j], status, o.note, float64(sides[0].least[j])/1e6)
	}

	u := &sides[0]
	ms := make([]float64, len(u.least))
	for j, d := range u.least {
		ms[j] = float64(d) / 1e6
	}
	c := u.counts
	failPct := 100 * float64(rep.Failed) / float64(rep.Attempted)
	e2e := map[string]metric{
		"setup_s":     {clock.median(), "s"},
		"pass_s":      {u.passS(), "s"},
		"job_p50_ms":  {median(ms), "ms"},
		"alloc_mb":    {median(u.alloc) / 1e6, "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"ok_pct":      {100 - failPct, "%"},
	}
	// Figures that exist on one workload only. They cannot be end-to-end
	// metrics, which every workload must report non-zero; the traced run
	// reports them as per-layer metrics.
	info := map[string]metric{
		"fail_pct": {failPct, "%"},
		"jobs":     {float64(rep.Attempted), "count"},
		"passes":   {float64(u.passes), "count"},
	}
	if c["spice.runs"] > 0 {
		info["ref_err_pct"] = metric{ratio(c["spice.ref_err_sum"], c["spice.ref_n"]), "%"}
		info["vbs_err_pct"] = metric{ratio(c["core.vbs_err_sum"], c["core.vbs_n"]), "%"}
	}
	if w.name == "prove" {
		info["bound_wl"] = metric{c["sca.bound_wl"], "W/L"}
	}
	printTable(out, "end-to-end", e2e)
	printTable(out, "workload", info)
	if !traced {
		rep.Metrics = e2e
		return rep, nil
	}

	t := &sides[1]
	rep.Metrics = layerMetrics(t, setupCounts, median(u.gc), t.passS()-u.passS(), u.passS())
	printTable(out, "per-layer", rep.Metrics)
	if err := tr.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans: %s (%d)\n", spansPath, len(tr.spans))
	return rep, nil
}

// layerMetrics derives the per-layer table from a traced side's
// counters; every metric is present on every workload (0 where the
// workload does not reach the layer).
func layerMetrics(t *side, setup map[string]float64, gc, overheadS, untracedS float64) map[string]metric {
	c := t.counts
	m := map[string]metric{}
	for _, l := range perLayer {
		var v float64
		switch {
		case strings.HasPrefix(l.name, "setup."):
			v = setup[strings.TrimPrefix(l.name, "setup.")]
		case l.derive != nil:
			v = l.derive(c)
		default:
			v = c[l.name]
		}
		m[l.name] = metric{v, l.unit}
	}
	m["runtime.gc_cycles"] = metric{gc, "count"}
	m["trace.overhead_s"] = metric{overheadS, "s"}
	m["trace.overhead_pct"] = metric{100 * ratio(overheadS, untracedS), "%"}
	return m
}

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = []struct {
	name, unit string
	derive     func(c map[string]float64) float64
}{
	{"setup.circuits.build_ms", "ms", nil},
	{"setup.circuit.expand_ms", "ms", nil},
	{"setup.netlist.parse_ms", "ms", nil},
	{"setup.netlist.flatten_ms", "ms", nil},
	{"setup.reference.load_ms", "ms", nil},
	{"sizing.delay_target_ms", "ms", nil},
	{"sizing.sim_evals", "count", nil},
	{"sizing.alloc_mb", "MB", nil},
	{"core.runs", "count", nil},
	{"core.ms_per_run", "ms", func(c map[string]float64) float64 {
		return ratio(c["sizing.delay_target_ms"], c["core.runs"])
	}},
	{"core.simulate_ms", "ms", nil},
	{"core.alloc_mb", "MB", nil},
	{"core.vbs_err_pct", "%", func(c map[string]float64) float64 { return ratio(c["core.vbs_err_sum"], c["core.vbs_n"]) }},
	{"circuit.expand_ms", "ms", nil},
	{"netlist.flatten_ms", "ms", nil},
	{"spice.run_ms", "ms", nil},
	{"spice.steps", "count", nil},
	{"spice.sweeps", "count", nil},
	{"spice.evals", "count", nil},
	{"spice.evals_per_step", "count", func(c map[string]float64) float64 { return ratio(c["spice.evals"], c["spice.steps"]) }},
	{"spice.rescued", "count", nil},
	{"spice.backoffs", "count", nil},
	{"spice.fail_ms", "ms", nil},
	{"spice.ok_ratio", "ratio", func(c map[string]float64) float64 { return ratio(c["spice.ok"], c["spice.runs"]) }},
	{"spice.alloc_mb", "MB", nil},
	{"spice.ref_err_pct", "%", func(c map[string]float64) float64 { return ratio(c["spice.ref_err_sum"], c["spice.ref_n"]) }},
	{"sca.analyze_ms", "ms", nil},
	{"sca.prove_ms", "ms", nil},
	{"sca.refine_ms", "ms", nil},
	{"sca.alloc_mb", "MB", nil},
	{"sat.queries", "count", nil},
	{"sat.unknown", "count", nil},
	{"sca.candidate_pairs", "count", nil},
	{"sca.prefilter_refuted", "count", nil},
	{"sca.queried", "count", nil},
	{"sca.proven", "count", nil},
	{"sca.proven_per_query", "ratio", func(c map[string]float64) float64 { return ratio(c["sca.proven"], c["sca.queried"]) }},
	{"sca.replay_checked", "count", nil},
	{"sca.replay_failed", "count", nil},
	{"sca.bound_wl", "W/L", nil},
}

// keepLeast merges a pass's counters into the side's: times ("_ms")
// keep their least value, counts (identical every pass) the latest.
func keepLeast(acc, pass map[string]float64) map[string]float64 {
	if acc == nil {
		return pass
	}
	for k, v := range pass {
		if strings.HasSuffix(k, "_ms") {
			v = math.Min(v, acc[k])
		}
		acc[k] = v
	}
	return acc
}

func sameOutcome(a, b outcome) bool {
	return a.note == b.note && (a.err == nil) == (b.err == nil) && (a.check == nil) == (b.check == nil)
}

func oneLine(err error) string { return strings.ReplaceAll(err.Error(), "\n", "; ") }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

func printTable(out io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "%s %-26s %14.6g %s\n", title, k, m[k].Value, m[k].Unit)
	}
}
