// Package cli implements the three command-line tools (mtexp, mtsim,
// mtsize) as testable functions over an explicit output writer; the
// binaries under cmd/ are thin wrappers.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mtcmos"
	"mtcmos/internal/shard"
)

// Exp implements the mtexp command: it regenerates the paper's tables
// and figures. args excludes the program name; output goes to w.
func Exp(args []string, w io.Writer) error {
	return ExpContext(context.Background(), args, w)
}

// ExpContext is Exp under a caller context: cancelling ctx aborts the
// running experiment between simulator steps.
func ExpContext(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("mtexp", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		exp     = fs.String("e", "", "experiment id to run, or 'all'")
		fast    = fs.Bool("fast", false, "skip the reference-engine columns (switch-level only)")
		plot    = fs.Bool("plot", false, "render ASCII plots of the series")
		csv     = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		multN   = fs.Int("mult", 8, "multiplier operand width (the paper uses 8)")
		adderN  = fs.Int("adder", 3, "adder width (the paper uses 3)")
		spiceN  = fs.Int("spicevectors", 0, "reference-engine vector budget for big sweeps (0 = per-experiment default)")
		seed    = fs.Int64("seed", 1, "sampling seed")
		timings = fs.Bool("time", false, "print per-experiment wall time")
		timeout = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = unlimited; overruns exit 4)")
		jobs    = fs.Int("j", 0, "parallel sweep workers (0 = one per CPU, 1 = serial); results are identical for any value")
		shards  = fs.Int("shards", 0, "split big vector grids over N shards on worker subprocesses (0 = in-process); output is identical for any value")
		resume  = fs.String("resume", "", "checkpoint sharded grids to this journal and resume from it if it exists (implies sharded execution)")
		hosts   = fs.String("hosts", "", "run shards on remote mtworkd daemons: comma-separated host:port list, or @file with one per line (implies sharded execution); output is identical to a local run")
		authF   = fs.String("auth", os.Getenv("MTWORKD_AUTH"), "shared secret for -hosts daemons started with mtworkd -auth (default $MTWORKD_AUTH)")
		worker  = fs.Bool("worker", false, "run as a shard worker subprocess (internal; speaks the shard protocol on stdin/stdout)")
		version = versionFlag(fs)
		profF   = addProfileFlags(fs)
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *version {
		printVersion(w, "mtexp")
		return nil
	}
	if *worker {
		// Spawned by a coordinating mtexp: serve shard assignments on
		// stdin/stdout until told to quit. Typed failures inside the
		// worker travel back on the wire; the exit code (via ExitCode)
		// covers deaths without a result frame.
		return shard.ServeWorker(ctx, os.Stdin, w)
	}
	prof, err := profF.start()
	if err != nil {
		return err
	}
	defer prof.stop(&err)
	ctx, cancel := budgetCtx(ctx, *timeout)
	defer cancel()

	if *exp == "" {
		fmt.Fprintln(w, "available experiments (-e <id> or -e all):")
		for _, e := range mtcmos.Experiments() {
			fmt.Fprintf(w, "  %-8s %-10s %s\n", e.ID, e.Paper, e.Desc)
		}
		return nil
	}

	cfg := mtcmos.ExperimentConfig{
		Fast:           *fast,
		SpiceVectors:   *spiceN,
		MultiplierBits: *multN,
		AdderBits:      *adderN,
		Seed:           *seed,
		Ctx:            ctx,
		Workers:        *jobs,
	}
	var runner *shard.Runner
	if *shards > 0 || *resume != "" || *hosts != "" {
		opts := shard.Options{
			Shards:  *shards,
			Procs:   *jobs,
			Spawn:   shard.SelfSpawner("-worker"),
			Journal: *resume,
			Seed:    *seed,
		}
		if *hosts != "" {
			// Remote execution; the local subprocess Spawn stays as the
			// fallback rung when hosts are down or busy.
			opts.Transport, err = hostsTransport(*hosts, *authF)
			if err != nil {
				return err
			}
		}
		runner = &shard.Runner{Opts: opts}
		cfg.Shard = runner
	}

	var ids []string
	if *exp == "all" {
		for _, e := range mtcmos.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}
	if *resume != "" && len(ids) != 1 {
		// A journal pins one grid's identity; a second experiment
		// would be refused as a mismatched resume.
		return fmt.Errorf("%w: -resume checkpoints a single sharded experiment; run it with one -e id", errUsage)
	}

	var firstErr error
	for _, id := range ids {
		start := time.Now()
		out, err := mtcmos.RunExperiment(strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(w, "mtexp: %s: %v\n", id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fmt.Fprintf(w, "==== %s: %s ====\n", out.ID, out.Title)
		for _, tb := range out.Tables {
			if *csv {
				fmt.Fprint(w, tb.CSV())
			} else {
				fmt.Fprintln(w, tb.String())
			}
		}
		for _, s := range out.Series {
			if *csv {
				fmt.Fprint(w, s.Table().CSV())
			} else {
				fmt.Fprintln(w, s.String())
			}
			if *plot {
				fmt.Fprintln(w, s.Plot(64, 16))
			}
		}
		for _, n := range out.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
		if *timings {
			fmt.Fprintf(w, "(%s in %s)\n", out.ID, time.Since(start).Round(time.Millisecond))
			if runner != nil {
				if st := runner.LastStats(); st.Shards > 0 {
					fmt.Fprintf(w, "(shards: %d total, %d resumed, %d spawned, %d retries, %d worker deaths, %d quarantined)\n",
						st.Shards, st.Resumed, st.Spawned, st.Retries, st.Deaths, len(st.Quarantined))
					if strings.HasPrefix(st.Transport, "tcp:") {
						note := ""
						if st.RemoteFallback {
							note = "; some shards fell back to local subprocesses"
						}
						fmt.Fprintf(w, "(transport: %s, %d remote workers%s)\n", st.Transport, st.Remote, note)
					}
				}
			}
		}
		fmt.Fprintln(w)
	}
	return firstErr
}
