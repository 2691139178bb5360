package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/topology"
	"github.com/approxiot/approxiot/internal/transport"
)

// workloadDef is one benchmark workload: its input, its deployment, and how
// its generator loop runs.
type workloadDef struct {
	name string
	// paced: an open loop whose event time is the wall-clock schedule.
	// Otherwise a closed loop that pushes as fast as backpressure admits.
	paced bool
	// split runs the tree as an edge tier and a datacenter tier over TCP.
	split bool
	cfg   core.LiveConfig
	slab  func(seed uint64) *slab
	// checkGeo enables the cell-stratified checks (top-k, quantile, sliding).
	checkGeo bool
}

// closeCadence is the live tree's wall-clock close ticker (LiveConfig.Window,
// the program's default). Paced workloads use an event window that is not a
// multiple of it, so a window's end falls at every phase of the ticker over
// a run instead of one phase per run.
const closeCadence = 50 * time.Millisecond

// pacedWindow is 77 ms: gcd(77, 50) = 1, so window ends walk through all 50
// one-millisecond ticker phases every 50 windows. pacedChunk divides it.
// pacedLap (windows a lap, 4 s) with the lap rotation gives more distinct
// windows than a run holds.
const (
	pacedWindow = 77 * time.Millisecond
	pacedChunk  = 7 * time.Millisecond
	pacedLap    = 52
)

func workloads() map[string]*workloadDef {
	edge := topology.Testbed()
	edge.Window = 200 * time.Millisecond

	geo := topology.Testbed()
	geo.Window = pacedWindow

	wan := topology.Testbed()
	wan.Window = pacedWindow

	return map[string]*workloadDef{
		"edge-saturate": {
			name: "edge-saturate",
			cfg: core.LiveConfig{
				Spec:       edge,
				NewSampler: core.WHSFactory(),
				Cost:       core.EffectiveFractionBudget{Fraction: 0.1},
				Queries:    []query.Kind{query.Sum, query.Count},
				Window:     closeCadence,
				EventTime:  true,
				// A closed loop stalls whenever the tree falls behind, and a
				// stall past the default idle timeout (4 × the ticker) ages
				// sources out and drops in-order items as late — now and
				// then even with one pusher (README.md, known hazard). The
				// measured closed loop therefore waits out stalls;
				// --pushers > 1 restores the default to show the hazard.
				IdleTimeout: closedLoopIdle,
			},
			// 8 slots × 4 sub-streams × 6250 items/s of event time: 40 000
			// items per 200 ms window, 500 per slot push, 8 windows a lap.
			slab: func(seed uint64) *slab {
				return buildSlab(edge.Sources, 8, edge.Window, 20*time.Millisecond,
					microChunks(seed, edge.Sources, 6250), 0, false)
			},
		},
		"geo-paced": {
			name:  "geo-paced",
			paced: true,
			cfg: core.LiveConfig{
				Spec:        geo,
				NewSampler:  core.WHSFactory(),
				Cost:        core.EffectiveFractionBudget{Fraction: 0.1},
				Queries:     []query.Kind{query.Sum, query.Count, query.TopKOf(geoTopK), query.QuantileOf(geoQuantile)},
				Slide:       geoSlide,
				Window:      closeCadence,
				EventTime:   true,
				Partitions:  4,
				RootShards:  2,
				LayerShards: []int{2, 2},
			},
			// NYC taxi trips stratified by 0.02° grid cell, the case study's
			// make-up: per slot 12 zones, the busiest at 480 trips/s, ~20 000
			// items/s in all.
			slab: func(seed uint64) *slab {
				return buildSlab(geo.Sources, pacedLap, geo.Window, pacedChunk,
					geoChunks(seed, geo.Sources, 12, 480, 0.02), geoQuantile, true)
			},
			checkGeo: true,
		},
		"wan-paced": {
			name:  "wan-paced",
			paced: true,
			split: true,
			cfg: core.LiveConfig{
				Spec:       wan,
				NewSampler: core.WHSFactory(),
				Cost:       core.EffectiveFractionBudget{Fraction: 0.1},
				Queries:    []query.Kind{query.Sum, query.Count},
				Window:     closeCadence,
				EventTime:  true,
			},
			// 8 slots × 4 sub-streams × 625 items/s: 20 000 items/s.
			slab: func(seed uint64) *slab {
				return buildSlab(wan.Sources, pacedLap, wan.Window, pacedChunk,
					microChunks(seed, wan.Sources, 625), 0, false)
			},
		},
	}
}

// closedLoopIdle is edge-saturate's idle timeout: far above any stall a
// run sees, far below the run.
const closedLoopIdle = 10 * time.Second

const (
	geoTopK     = 5
	geoQuantile = 0.9
	geoSlide    = 4
)

// wanEdgeLayers is the edge tier of the split deployment: both edge layers
// with the valves; the root runs in the datacenter tier.
var wanEdgeLayers = []int{0, 1}

// open builds the deployment with the given tracer wrapped around its seams.
func (w *workloadDef) open(seed uint64, t *tracer, rootTopic string, rootBytes *atomic.Int64, vt *valveTracer) (deployment, error) {
	cfg := w.cfg
	cfg.Seed = seed
	cfg.NewSampler = t.samplers(cfg.NewSampler)
	wrap := func(b transport.Bus) *meteredBus {
		return &meteredBus{Bus: b, t: t, rootTopic: rootTopic, rootBytes: rootBytes}
	}
	if w.split {
		return openSplit(cfg, wanEdgeLayers, wrap, vt)
	}
	return openLive(cfg, wrap(transport.NewMem()), vt)
}

// plan compiles the workload's deployment plan for topic and tier names.
func (w *workloadDef) plan() (*core.Plan, error) {
	return core.CompilePlan(core.PlanConfig{
		Spec:        w.cfg.Spec,
		NewSampler:  w.cfg.NewSampler,
		Cost:        w.cfg.Cost,
		Queries:     w.cfg.Queries,
		Partitions:  w.cfg.Partitions,
		RootShards:  w.cfg.RootShards,
		LayerShards: w.cfg.LayerShards,
	})
}

// loop is the generator's account of one run.
type loop struct {
	first, last int   // the whole windows pushed on every slot
	pushes      int64 // valve pushes attempted
	failed      int64 // pushes that returned an error
	items       int64
	lastPush    []time.Time // closed loop: when each window's last round started, from first
	started     time.Time
	lagMax      time.Duration
	genNs       int64 // time spent copying and restamping items
	stopped     time.Time
	firstErr    error
}

// drive pushes the slab from window first on, in laps, until the deadline,
// then finishes the window in progress so every pushed window is whole.
// Window g starts at epoch + g·window. Each pusher goroutine owns the slots
// congruent to its index; the benchmark's workloads use one.
func drive(d deployment, vt *valveTracer, s *slab, epoch time.Time, first int, paced bool, deadline time.Time, pushers int) *loop {
	var (
		stopAt  atomic.Int64 // last window to push; -1 until the deadline
		current = make([]atomic.Int64, pushers)
		mu      sync.Mutex
		out     = &loop{first: first, started: time.Now()}
		wg      sync.WaitGroup
	)
	stopAt.Store(-1)
	cpw := s.chunksPerWindow()
	slots := len(s.slots)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var (
				buf                   = make([]stream.Item, 0, 1024)
				pushes, failed, items int64
				genNs                 int64
				lagMax                time.Duration
				lastPush              []time.Time
				firstErr              error
			)
			for g := first * cpw; ; g++ {
				win := g / cpw
				current[p].Store(int64(win))
				if paced {
					due := epoch.Add(time.Duration(g+1) * s.chunk)
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
					}
					if late := time.Since(due); late > lagMax {
						lagMax = late
					}
				}
				if (g+1)%cpw == 0 {
					lastPush = append(lastPush, time.Now())
				}
				for slot := p; slot < slots; slot += pushers {
					var t0 time.Time
					if vt.t.on {
						t0 = time.Now()
					}
					buf = s.fill(buf, slot, g, epoch)
					if vt.t.on {
						genNs += int64(time.Since(t0))
					}
					if len(buf) == 0 {
						continue
					}
					pushes++
					items += int64(len(buf))
					if err := vt.push(d, slot, buf); err != nil {
						failed++
						if firstErr == nil {
							firstErr = fmt.Errorf("push slot %d window %d: %w", slot, win, err)
						}
					}
				}
				if (g+1)%cpw != 0 {
					continue
				}
				if stopAt.Load() < 0 && !time.Now().Before(deadline) {
					furthest := int64(win)
					for i := range current {
						if v := current[i].Load(); v > furthest {
							furthest = v
						}
					}
					stopAt.CompareAndSwap(-1, furthest)
				}
				if last := stopAt.Load(); last >= 0 && int64(win) >= last {
					break
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.pushes += pushes
			out.failed += failed
			out.items += items
			out.genNs += genNs
			if lagMax > out.lagMax {
				out.lagMax = lagMax
			}
			if p == 0 {
				out.lastPush = lastPush
			}
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
		}(p)
	}
	wg.Wait()
	out.stopped = time.Now()
	out.last = int(stopAt.Load())
	return out
}
