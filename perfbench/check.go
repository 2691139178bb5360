package main

import (
	"fmt"
	"math"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
)

// coverageFloor is the least share of n independent 95% intervals that
// should hold their true value: the binomial mean less 3.09 standard
// deviations, a floor an honest bound falls below about once in a thousand
// runs.
func coverageFloor(n int) float64 {
	if n == 0 {
		return 0
	}
	return 0.95 - 3.09*math.Sqrt(0.95*0.05/float64(n))
}

// coverage tallies how many claimed intervals held their exact value.
type coverage struct {
	name      string
	held, all int
}

func (c *coverage) add(lo, hi, exact float64) {
	c.all++
	if exact >= lo && exact <= hi {
		c.held++
	}
}

func (c *coverage) String() string {
	share := float64(c.held) / float64(c.all)
	floor := coverageFloor(c.all)
	msg := fmt.Sprintf("%s: %d of %d 95%% intervals hold the exact value (%.3f, floor %.3f)", c.name, c.held, c.all, share, floor)
	if share < floor {
		msg += " — below the floor: the claimed interval is too narrow"
	}
	return msg
}

// check compares the phase's window results with the exact answers computed
// from the generated input and returns every failed check.
func (ph *phase) check(w *workloadDef, s *slab) []string {
	var fails []string
	fail := func(format string, args ...any) { fails = append(fails, fmt.Sprintf(format, args...)) }
	if ph.loop.firstErr != nil {
		fail("%d of %d pushes failed, first: %v", ph.loop.failed, ph.loop.pushes, ph.loop.firstErr)
	}
	if ph.finErr != nil {
		fail("close: %v", ph.finErr)
		return fails
	}
	f := ph.fin
	if f.produced != ph.loop.items {
		fail("program counted %d items produced, the generator pushed %d", f.produced, ph.loop.items)
	}
	if f.late != 0 {
		fail("%d in-order items dropped as late", f.late)
	}
	if f.subDrops != 0 {
		fail("%d window results dropped on the subscription", f.subDrops)
	}
	var input float64
	for _, win := range f.windows {
		input += win.EstimatedInput
	}
	if total := input + f.lateInput; math.Abs(total-float64(f.produced)) > 1e-6*float64(f.produced) {
		fail("Σ EstimatedInput + LateDroppedInput = %.3f, produced %d", total, f.produced)
	}
	if len(ph.rec) != len(f.windows) {
		fail("received %d window results, the program closed %d", len(ph.rec), len(f.windows))
	}
	if pushed := ph.loop.last - ph.loop.first + 1; len(f.windows) != pushed {
		fail("program closed %d windows, the generator pushed %d", len(f.windows), pushed)
	}

	sums := coverage{name: "SUM"}
	groups := coverage{name: "top-k group"}
	quants := coverage{name: "quantile"}
	slides := coverage{name: "sliding"}
	topMiss := 0
	byIndex := map[int]core.WindowResult{}
	// Windows of equal content get equal samples (the program seeds every
	// window's sampler alike), so each content counts once in the tallies.
	tallied := map[int]bool{}
	seen := map[time.Duration]bool{}
	for _, win := range f.windows {
		g := ph.windowIndex(s, win)
		if g < ph.loop.first || g > ph.loop.last || !win.Start.Equal(ph.epoch.Add(time.Duration(g)*s.window)) {
			fail("window at %v is not one the generator pushed", win.Start)
			continue
		}
		if _, dup := byIndex[g]; dup {
			fail("window %d closed twice", g)
		}
		byIndex[g] = win
		ref := s.exact(g)
		if c := win.Result(query.Count).Estimate.Value; math.Abs(c-float64(ref.count)) > 1e-6*float64(ref.count) {
			fail("window %d: COUNT estimate %.3f, exact %d (Eq. 8)", g, c, ref.count)
		}
		if seen[s.contentKey(g)] {
			continue
		}
		seen[s.contentKey(g)] = true
		tallied[g] = true
		lo, hi := win.Result(query.Sum).Interval()
		sums.add(lo, hi, ref.sum)
		if !w.checkGeo {
			continue
		}
		top := win.Result(query.TopKOf(geoTopK))
		for _, ge := range top.Groups {
			lo, hi := ge.Sum.Interval(top.Confidence)
			groups.add(lo, hi, ref.cells[ge.Source])
		}
		if !containsSource(top.Groups, topCells(ref.cells, 1)[0]) {
			topMiss++
		}
		q := win.Result(query.QuantileOf(geoQuantile)).Quantile
		if q == nil {
			fail("window %d: no quantile answer", g)
		} else {
			quants.add(q.Lo, q.Hi, ref.quantile)
		}
	}
	if w.checkGeo {
		for g, win := range byIndex {
			sl, ok := win.SlidingResult(query.Sum)
			if !ok {
				fail("window %d: no sliding SUM", g)
				continue
			}
			var panes, exactSum float64
			for i := 0; i < sl.Panes; i++ {
				pw, ok := byIndex[g-i]
				if !ok {
					fail("window %d: sliding pane %d missing", g, g-i)
					break
				}
				panes += pw.Result(query.Sum).Estimate.Value
				exactSum += s.exact(g - i).sum
			}
			if math.Abs(sl.Estimate.Value-panes) > 1e-9*math.Abs(panes) {
				fail("window %d: sliding SUM %.6f is not the sum of its %d panes %.6f", g, sl.Estimate.Value, sl.Panes, panes)
			}
			if tallied[g] {
				lo, hi := sl.Interval()
				slides.add(lo, hi, exactSum)
			}
		}
		fmt.Printf("check top-%d: holds the exact top cell in %d of %d windows\n", geoTopK, sums.all-topMiss, sums.all)
	}
	// The coverage tallies are printed, not gated: the program's claimed
	// intervals fall short of the floor on some seeds (README.md, Findings).
	for _, c := range []*coverage{&sums, &groups, &quants, &slides} {
		if c.all > 0 {
			fmt.Printf("check %s\n", c)
		}
	}
	return fails
}

func containsSource(groups []query.GroupEstimate, src stream.SourceID) bool {
	for _, g := range groups {
		if g.Source == src {
			return true
		}
	}
	return false
}
