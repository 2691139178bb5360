package main

import (
	"sort"
	"time"

	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/workload"
)

// slab is a workload's whole input, generated before any timing starts: a
// fixed number of event-time chunks per source slot. Runs replay it in laps,
// shifting event time by the lap's span, so the benchmark's own memory stays
// constant however long a run lasts and the heap and GC figures describe the
// program, not the input.
//
// Two things keep the laps from repeating windows exactly, which would make
// a run's error figures an average over a handful of distinct windows (the
// program seeds every event window's sampler alike, so equal input gives an
// equal sample): a lap is one chunk longer than a whole number of windows,
// so window boundaries fall at a different place in each lap, and each lap
// rotates which source slot replays which slot's items.
//
// Item timestamps are stored as offsets from the Unix epoch (Ts.UnixNano()
// is the offset into the lap); replay adds the lap's base instant.
type slab struct {
	window time.Duration // event-time window length
	chunk  time.Duration // one push round covers this much event time
	laps   int           // chunks per lap
	slots  [][]stream.Item
	cuts   [][]int // cuts[slot][c] is the first item of chunk c; one extra entry ends the lap

	// merged holds every item of the lap in event-time order with running
	// sums, from which any window's exact answer is read.
	merged []slabItem
	prefix []float64
	cells  bool
	q      float64
	cache  map[int]exact
}

type slabItem struct {
	off   time.Duration
	value float64
	src   stream.SourceID
}

func (s *slab) chunksPerWindow() int { return int(s.window / s.chunk) }
func (s *slab) span() time.Duration  { return time.Duration(s.laps) * s.chunk }

// fill copies global chunk gc of slot into dst, with event time shifted to
// its lap, and returns it. This copy is the generator's only work inside the
// timed region.
func (s *slab) fill(dst []stream.Item, slot, gc int, epoch time.Time) []stream.Item {
	lap, c := gc/s.laps, gc%s.laps
	from := (slot + lap) % len(s.slots)
	base := epoch.Add(time.Duration(lap) * s.span())
	src := s.slots[from][s.cuts[from][c]:s.cuts[from][c+1]]
	dst = append(dst[:0], src...)
	for i := range dst {
		dst[i].Ts = base.Add(time.Duration(dst[i].Ts.UnixNano()))
	}
	return dst
}

// chunkSource produces the items of one event-time chunk [from, from+dt),
// already split by source slot.
type chunkSource func(from time.Time, dt time.Duration) [][]stream.Item

// buildSlab generates windows whole windows plus one chunk of input from
// gen. quantile and cells select the cell-stratified reference answers.
func buildSlab(slots, windows int, window, chunk time.Duration, gen chunkSource, quantile float64, cells bool) *slab {
	s := &slab{window: window, chunk: chunk, slots: make([][]stream.Item, slots), cuts: make([][]int, slots),
		cells: cells, q: quantile, cache: map[int]exact{}}
	s.laps = windows*s.chunksPerWindow() + 1
	for c := 0; c < s.laps; c++ {
		parts := gen(time.Unix(0, int64(c)*int64(chunk)).UTC(), chunk)
		for slot := range s.slots {
			s.cuts[slot] = append(s.cuts[slot], len(s.slots[slot]))
			s.slots[slot] = append(s.slots[slot], parts[slot]...)
		}
	}
	for slot, its := range s.slots {
		s.cuts[slot] = append(s.cuts[slot], len(its))
		for _, it := range its {
			s.merged = append(s.merged, slabItem{off: time.Duration(it.Ts.UnixNano()), value: it.Value, src: it.Source})
		}
	}
	sort.SliceStable(s.merged, func(i, j int) bool { return s.merged[i].off < s.merged[j].off })
	s.prefix = make([]float64, len(s.merged)+1)
	for i, it := range s.merged {
		s.prefix[i+1] = s.prefix[i] + it.value
	}
	return s
}

// microChunks is the Gaussian micro workload (the paper's §V-A sub-streams
// A–D) with one generator per slot, each at perStream items/s per sub-stream
// of event time.
func microChunks(seed uint64, slots int, perStream float64) chunkSource {
	gens := make([]*workload.Generator, slots)
	for i := range gens {
		gens[i] = workload.GaussianMicro(seed*1_000_003+uint64(i)*131+7, perStream)
	}
	return func(from time.Time, dt time.Duration) [][]stream.Item {
		out := make([][]stream.Item, slots)
		for i, g := range gens {
			out[i] = g.Generate(from, dt)
		}
		return out
	}
}

// geoChunks is the cell-stratified NYC taxi workload as the repository's
// case study (examples/nyctaxi) deploys it: every source slot replays its own
// city of zones at baseRate (busiest zone, items/s), stratified by cell.
func geoChunks(seed uint64, slots, zones int, baseRate, cellRes float64) chunkSource {
	gens := make([]*workload.GeoGenerator, slots)
	for i := range gens {
		gens[i] = workload.NYCTaxiGeo(seed+uint64(i)*97, zones, baseRate, cellRes)
	}
	return func(from time.Time, dt time.Duration) [][]stream.Item {
		out := make([][]stream.Item, slots)
		for i, g := range gens {
			out[i] = g.Generate(from, dt)
		}
		return out
	}
}

// exact is one window's answer computed from the generated items alone.
type exact struct {
	count int64
	sum   float64
	last  time.Duration // the window's last event, as an offset from the run's epoch
	// Cell-stratified workloads only.
	cells    map[stream.SourceID]float64
	quantile float64
}

// contentKey identifies the input of window g: it repeats once the laps
// have come round to the same offset and the same slot rotation.
func (s *slab) contentKey(g int) time.Duration {
	return (time.Duration(g) * s.window) % (s.span() * time.Duration(len(s.slots)))
}

// forget drops the cached answers of a session's windows.
func (s *slab) forget() { s.cache = map[int]exact{} }

// exact returns the answer for window g of a run (window g covers
// [g·window, (g+1)·window) after the run's epoch), whichever laps it spans.
func (s *slab) exact(g int) exact {
	if e, ok := s.cache[g]; ok {
		return e
	}
	var e exact
	var vals []float64
	ws := time.Duration(g) * s.window
	we := ws + s.window
	span := s.span()
	for k := ws / span; k*span < we; k++ {
		lo, hi := ws-k*span, we-k*span
		i := sort.Search(len(s.merged), func(i int) bool { return s.merged[i].off >= lo })
		j := sort.Search(len(s.merged), func(i int) bool { return s.merged[i].off >= hi })
		if j == i {
			continue
		}
		e.count += int64(j - i)
		e.sum += s.prefix[j] - s.prefix[i]
		e.last = k*span + s.merged[j-1].off
		if !s.cells {
			continue
		}
		if e.cells == nil {
			e.cells = map[stream.SourceID]float64{}
		}
		for _, it := range s.merged[i:j] {
			e.cells[it.src] += it.value
			vals = append(vals, it.value)
		}
	}
	if s.cells {
		e.quantile = exactQuantile(vals, s.q)
	}
	s.cache[g] = e
	return e
}

// exactQuantile is the census form of the engine's weighted rank walk with
// unit weights: the smallest value whose cumulative count reaches q·n.
func exactQuantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	target := q * float64(len(v))
	for i := range v {
		if float64(i+1) >= target {
			return v[i]
		}
	}
	return v[len(v)-1]
}

// topCells returns the k cells with the largest exact sum (ties broken by
// name, as the engine ranks them).
func topCells(cells map[stream.SourceID]float64, k int) []stream.SourceID {
	out := make([]stream.SourceID, 0, len(cells))
	for c := range cells {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if cells[out[i]] != cells[out[j]] {
			return cells[out[i]] > cells[out[j]]
		}
		return out[i] < out[j]
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}
