package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one job share Job; Parent is the enclosing span's
// ID, or -1.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Pass   int     `json:"pass"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the run began
	End    float64 `json:"end_s"`
	AllocB uint64  `json:"alloc_bytes"`
}

// tracer collects the counters the program's calls return (always) and,
// in a traced pass, a span with its allocation around each call. Spans
// stay in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	on    bool // record spans in the current pass
	pass  int
	job   int
	stack []int
	spans []span
	// probe accumulates, within the current job, the time of calls made
	// only to be measured (a pass's job time excludes it).
	probe time.Duration
	// counts holds the current pass's counters and per-layer busy time
	// ("<layer>.<name>_ms") and allocation ("<layer>.alloc_mb").
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// call runs f as one call into layer; in a traced pass it records a
// span around it.
func (t *tracer) call(layer, name string, f func()) {
	if !t.on {
		f()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: t.job, Pass: t.pass, Layer: layer, Name: name})
	t.stack = append(t.stack, id)
	start := time.Now()
	f()
	end := time.Now()
	t.stack = t.stack[:len(t.stack)-1]
	runtime.ReadMemStats(&m1)
	sp := &t.spans[id]
	sp.Start, sp.End = start.Sub(t.t0).Seconds(), end.Sub(t.t0).Seconds()
	sp.AllocB = m1.TotalAlloc - m0.TotalAlloc
	t.counts[layer+"."+name+"_ms"] += float64(end.Sub(start)) / 1e6
	t.counts[layer+".alloc_mb"] += float64(sp.AllocB) / 1e6
}

// probeCall is call for work done only to measure a layer the program
// reaches internally; its time is excluded from the job's time.
func (t *tracer) probeCall(layer, name string, f func()) {
	start := time.Now()
	t.call(layer, name, f)
	t.probe += time.Since(start)
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
