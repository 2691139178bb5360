// Command perfbench is the repository's benchmark: it runs one workload
// against the live ApproxIoT tree, checks every window answer against an
// exact computation made from the generated input, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload edge-saturate --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the run is split in two halves, the first untraced and the
// second with the program's seams wrapped; it prints the per-layer table and
// reports the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/transport"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// warmup is the start of each session whose windows the throughput and
// latency figures leave out: a fresh tree runs at about half speed for its
// first second.
const warmup = time.Second

// setupReps is how many times a run opens the program to time its set-up;
// the median is reported.
const setupReps = 101

// sessions is how many times a run opens the program and measures it for an
// equal share of the run. Each end-to-end figure is the median over the
// sessions, except the latency percentiles, which pool every session's
// windows: on two cores one session's scheduling luck moves a closed loop's
// throughput by over ten percent, and a median of several sessions does not
// carry that into the run's figure.
const sessions = 6

func main() {
	var (
		name    = flag.String("workload", "", "edge-saturate, geo-paced or wan-paced")
		seed    = flag.Uint64("seed", 1, "input and sampler seed")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced half-run")
		pushers = flag.Int("pushers", 1, "pushing goroutines (edge-saturate; 2 reproduces the idle-timeout hazard in README.md)")
		outDir  = flag.String("out", ".bench_build", "directory for span files")
	)
	flag.Parse()
	w, ok := workloads()[*name]
	if !ok || *seconds <= 0 || *pushers < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload edge-saturate|geo-paced|wan-paced, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	if w.paced && *pushers != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --pushers applies to the closed loop only\n")
		os.Exit(2)
	}
	if *pushers > 1 {
		w.cfg.IdleTimeout = 0 // the program's default, under which the hazard shows
	}
	out, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *pushers, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func run(w *workloadDef, seed uint64, seconds time.Duration, traced bool, pushers int, outDir string) (*output, error) {
	s := w.slab(seed)
	plan, err := w.plan()
	if err != nil {
		return nil, err
	}
	// Teardowns of the transports run together at the end, after every
	// measurement.
	var teardowns []func()
	defer func() {
		var wg sync.WaitGroup
		for _, td := range teardowns {
			wg.Add(1)
			go func(td func()) {
				defer wg.Done()
				td()
			}(td)
		}
		wg.Wait()
	}()
	setup, err := timeSetup(w, seed, s, plan, &teardowns)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	out := &output{Correct: true, Metrics: map[string]metric{}}
	if !traced {
		// Each session's figures are taken and its results dropped before
		// the next opens, so every session starts from the same live heap
		// and the GC paces alike in all of them.
		var figs []map[string]metric
		var lat []float64
		next := 0 // sessions continue through the input, so none repeats another's windows
		for i := 0; i < sessions; i++ {
			ph, err := measure(w, seed, s, plan, next, seconds/sessions, false, pushers, &teardowns)
			if err != nil {
				return nil, err
			}
			out.add(w, s, ph)
			m, l := ph.figures(w, s)
			figs = append(figs, m)
			lat = append(lat, l...)
			next = ph.loop.last + 1
			s.forget()
		}
		out.Metrics = endToEnd(figs, lat)
		if _, ok := out.Metrics["throughput_items_per_s"]; !ok || len(lat) == 0 {
			return nil, fmt.Errorf("too few windows closed after each session's %v warm-up; run longer", warmup)
		}
		out.Metrics["setup_s"] = metric{setup.Seconds(), "s"}
		return out, nil
	}
	plain, err := measure(w, seed, s, plan, 0, seconds/2, false, pushers, &teardowns)
	if err != nil {
		return nil, err
	}
	out.add(w, s, plain)
	tr, err := measure(w, seed, s, plan, plain.loop.last+1, seconds/2, true, pushers, &teardowns)
	if err != nil {
		return nil, err
	}
	out.add(w, s, tr)
	layers, table := perLayer(w, s, plain, tr)
	fmt.Print(table)
	for k, v := range layers {
		out.Metrics[k] = v
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := tr.t.writeSpans(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Printf("spans written to %s\n", path)
		}
	}
	return out, nil
}

// add folds one phase's operation counts and check results into the output.
func (o *output) add(w *workloadDef, s *slab, ph *phase) {
	o.Attempted += ph.loop.pushes
	o.Failed += ph.loop.failed
	for _, f := range ph.check(w, s) {
		o.Correct = false
		fmt.Fprintf(os.Stderr, "CHECK FAILED [%s]: %s\n", w.name, f)
	}
}

// alignUp returns the first multiple of d (in Unix time) at or after t.
func alignUp(t time.Time, d time.Duration) time.Time {
	ns := t.UnixNano()
	if r := ns % int64(d); r != 0 {
		ns += int64(d) - r
	}
	return time.Unix(0, ns).UTC()
}

// timeSetup opens the program setupReps times, each time until it has
// accepted its first push, and returns the median. Each opening is aborted
// (untimed) before the next; its teardown is left to the caller.
func timeSetup(w *workloadDef, seed uint64, s *slab, plan *core.Plan, teardowns *[]func()) (time.Duration, error) {
	slot := 0
	for s.cuts[slot][1] == 0 {
		slot++
	}
	var times []float64
	for i := 0; i < setupReps; i++ {
		t := newTracer(false, plan)
		var rootBytes atomic.Int64
		vt := &valveTracer{t: t}
		buf := s.fill(nil, slot, 0, alignUp(time.Now(), s.window))
		runtime.GC()
		start := time.Now()
		d, err := w.open(seed, t, plan.Root().Topic, &rootBytes, vt)
		if err != nil {
			return 0, err
		}
		err = d.push(slot, buf)
		took := time.Since(start)
		d.abort()
		if td := d.infra(); td != nil {
			*teardowns = append(*teardowns, td)
		}
		if err != nil {
			return 0, err
		}
		times = append(times, took.Seconds())
	}
	return time.Duration(quantile(times, 0.5) * float64(time.Second)), nil
}

// phase is one measured run of a workload.
type phase struct {
	epoch     time.Time
	loop      *loop
	fin       final
	finErr    error
	rec       []receipt
	read      reading
	closeDur  time.Duration
	rootBytes int64
	lagMax    int64
	t         *tracer
	vt        *valveTracer
}

// measure opens the program once and drives it for dur, starting at window
// first of the input.
func measure(w *workloadDef, seed uint64, s *slab, plan *core.Plan, first int, dur time.Duration, traced bool, pushers int, teardowns *[]func()) (*phase, error) {
	ph := &phase{t: newTracer(traced, plan)}
	ph.vt = &valveTracer{t: ph.t}
	var rootBytes atomic.Int64
	d, err := w.open(seed, ph.t, plan.Root().Topic, &rootBytes, ph.vt)
	if err != nil {
		return nil, err
	}
	if td := d.infra(); td != nil {
		*teardowns = append(*teardowns, td)
	}
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		if !traced {
			return
		}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopMon:
				return
			case <-tick.C:
				if l := ingestLag(d.ingestBus(), plan); l > ph.lagMax {
					ph.lagMax = l
				}
			}
		}
	}()
	m := startMeter()
	// The first window starts on a window boundary a little ahead, so the
	// paced schedule never begins in the past.
	ph.epoch = alignUp(time.Now().Add(5*time.Millisecond), s.window).Add(-time.Duration(first) * s.window)
	ph.loop = drive(d, ph.vt, s, ph.epoch, first, w.paced, time.Now().Add(dur), pushers)
	close(stopMon)
	<-monDone
	closeStart := time.Now()
	ph.fin, ph.finErr = d.finish()
	ph.closeDur = time.Since(closeStart)
	ph.read = m.end()
	ph.rootBytes = rootBytes.Load()
	ph.rec = d.receipts()
	return ph, nil
}

// ingestLag is the records queued on the leaf topics that their consumer
// groups have not yet read, summed — the backlog the valves' backpressure
// bounds. It reads the unwrapped bus so that its probes are not counted as
// the valves' own.
func ingestLag(bus transport.Bus, plan *core.Plan) int64 {
	var total int64
	seen := map[string]bool{}
	for _, src := range plan.Sources {
		if seen[src.Topic] {
			continue
		}
		seen[src.Topic] = true
		// The leaf's consumer group is its node ID plus "-in", the name the
		// valves probe.
		if lag, err := bus.GroupLag(src.Topic, plan.Layers[0][src.ParentIndex].ID+"-in"); err == nil {
			total += lag
		}
	}
	return total
}

// windowIndex maps a result to its window number since the phase's epoch.
func (ph *phase) windowIndex(s *slab, win core.WindowResult) int {
	return int(win.Start.Sub(ph.epoch) / s.window)
}

// lastEvent is the scheduled creation time of window g's last event.
func (ph *phase) lastEvent(s *slab, g int) time.Time {
	return ph.epoch.Add(s.exact(g).last)
}

// endToEnd combines the untraced sessions' figures into the run's
// end-to-end metrics: the median of each figure over the sessions, the
// highest peak heap, and the latency percentiles over every session's
// windows.
func endToEnd(figs []map[string]metric, lat []float64) map[string]metric {
	per := map[string][]float64{}
	units := map[string]string{}
	for _, m := range figs {
		for k, v := range m {
			per[k] = append(per[k], v.Value)
			units[k] = v.Unit
		}
	}
	out := map[string]metric{}
	for k, vs := range per {
		out[k] = metric{quantile(vs, 0.5), units[k]}
	}
	// The peak is the run's highest, not a typical session's: the live heap
	// is sampled only at GCs, so a session that collects seldom can miss
	// its peak, but it cannot overstate it.
	out["peak_heap_mb"] = metric{quantile(per["peak_heap_mb"], 1), "MB"}
	out["result_latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	out["result_latency_p95_ms"] = metric{quantile(lat, 0.95), "ms"}
	return out
}

// figures computes one session's metrics and its windows' result latencies
// in milliseconds.
func (ph *phase) figures(w *workloadDef, s *slab) (map[string]metric, []float64) {
	items := float64(ph.fin.produced)
	out := map[string]metric{
		"cpu_ns_per_item":      {ph.read.cpuSeconds * 1e9 / items, "ns"},
		"alloc_bytes_per_item": {ph.read.allocBytes / items, "B"},
		"peak_heap_mb":         {ph.read.peakHeapMB, "MB"},
		"wan_bytes_per_item":   {float64(ph.rootBytes) / items, "B"},
	}
	// Windows received while the generator ran, after the warm-up: the
	// steady state, without the start-up or the drain at close.
	var inRun []receipt
	for _, r := range ph.rec {
		if !r.at.After(ph.loop.stopped) && !r.at.Before(ph.loop.started.Add(warmup)) {
			inRun = append(inRun, r)
		}
	}
	sort.Slice(inRun, func(i, j int) bool { return inRun[i].at.Before(inRun[j].at) })
	if n := len(inRun); n >= 2 {
		var covered float64
		for _, r := range inRun[1:] {
			covered += float64(s.exact(ph.windowIndex(s, r.win)).count)
		}
		out["throughput_items_per_s"] = metric{covered / inRun[n-1].at.Sub(inRun[0].at).Seconds(), "items/s"}
	}
	var lat []float64
	for _, r := range inRun {
		g := ph.windowIndex(s, r.win)
		from := ph.lastEvent(s, g)
		if i := g - ph.loop.first; !w.paced && i >= 0 && i < len(ph.loop.lastPush) {
			from = ph.loop.lastPush[i]
		}
		lat = append(lat, float64(r.at.Sub(from))/1e6)
	}
	var errSum float64
	for _, win := range ph.fin.windows {
		ref := s.exact(ph.windowIndex(s, win))
		errSum += math.Abs(win.Result(query.Sum).Estimate.Value-ref.sum) / ref.sum
	}
	out["sum_rel_error"] = metric{errSum / float64(len(ph.fin.windows)), "ratio"}
	return out, lat
}
