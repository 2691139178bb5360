package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/sample"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
)

// The traced mode wraps the program's public seams — the transport Bus with
// its producers and consumers, the SamplerFactory, and the valve pushes —
// and records spans and counts at each boundary. Nothing inside the program
// changes. With tracing off only the byte count onto the root's input topic
// is kept (one atomic add per send); it feeds wan_bytes_per_item.

// maxSpans bounds the spans kept in memory; later spans still feed the
// per-layer aggregates.
const maxSpans = 200_000

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tierStats aggregates one tier's boundary counts. A tier is named after the
// layer whose input topic the records travel on (edge1, edge2, root), so a
// send into "edge2" was made by an edge1 member.
type tierStats struct {
	sendNs, sends, sendRecords, sendBytes atomic.Int64
	polls, pollEmpty, pollRecords, pollNs atomic.Int64
	waitNs, waits                         atomic.Int64
	sampleNs, sampleIn, sampleOut, strata atomic.Int64
	intervals                             atomic.Int64
}

type tracer struct {
	on    bool
	epoch time.Time
	tiers []string       // tier name per layer
	layer map[string]int // input topic → layer
	stats []tierStats
	ids   atomic.Int64

	groupLag atomic.Int64
	// probing is the lag-probe window of the valve push in progress.
	probing atomic.Pointer[probeWindow]

	mu    sync.Mutex
	spans []span
	// Offline material: payloads captured off the wire per tier and the
	// root's sampled output per event window.
	payloads  [][]byte
	rootTheta map[int64][]stream.Batch
	window    time.Duration

	// wmSteps records each rise of the highest watermark polled off the
	// root's input topic, with when it was polled.
	wmMu    sync.Mutex
	wmMax   time.Time
	wmSteps []wmStep
}

type wmStep struct{ at, wm time.Time }

func (t *tracer) watermarkSteps() []wmStep {
	t.wmMu.Lock()
	defer t.wmMu.Unlock()
	return append([]wmStep(nil), t.wmSteps...)
}

// observeWatermarks folds one root-side poll's piggybacked watermarks.
func (t *tracer) observeWatermarks(recs []transport.Record) {
	var top time.Time
	for i := range recs {
		if at := recs[i].Watermark.At; at.After(top) {
			top = at
		}
	}
	t.wmMu.Lock()
	if top.After(t.wmMax) {
		t.wmMax = top
		t.wmSteps = append(t.wmSteps, wmStep{at: time.Now(), wm: top})
	}
	t.wmMu.Unlock()
}

// maxPayloads and maxThetaWindows bound the offline captures.
const (
	maxPayloads     = 4000
	maxThetaWindows = 40
)

func newTracer(on bool, plan *core.Plan) *tracer {
	t := &tracer{on: on, epoch: time.Now(), layer: map[string]int{}, rootTheta: map[int64][]stream.Batch{}, window: plan.Spec.Window}
	for _, l := range plan.Spec.Layers {
		t.tiers = append(t.tiers, l.Name)
	}
	t.stats = make([]tierStats, len(t.tiers))
	for _, layer := range plan.Layers {
		for _, d := range layer {
			t.layer[d.Topic] = d.Layer
		}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(name string, id, parent, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	}
	t.mu.Unlock()
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meteredBus wraps a transport.Bus. It always counts the bytes produced onto
// the root's input topic; traced, it also times and counts every send and
// poll per tier and every group-lag probe.
type meteredBus struct {
	transport.Bus
	t         *tracer
	rootTopic string
	rootBytes *atomic.Int64

	mu   sync.Mutex
	last *meteredProducer
}

func (b *meteredBus) NewProducer() transport.Producer {
	p := &meteredProducer{Producer: b.Bus.NewProducer(), b: b}
	b.mu.Lock()
	b.last = p
	b.mu.Unlock()
	return p
}

// lastProducer returns the producer most recently handed out; the valves
// create theirs when first asked for, which is how spans of their sends
// find the push that caused them.
func (b *meteredBus) lastProducer() *meteredProducer {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.last
}

func (b *meteredBus) NewConsumer(topic string) (transport.Consumer, error) {
	c, err := b.Bus.NewConsumer(topic)
	return b.wrapConsumer(c, topic), err
}

func (b *meteredBus) NewGroupConsumer(topic, group string) (transport.Consumer, error) {
	c, err := b.Bus.NewGroupConsumer(topic, group)
	return b.wrapConsumer(c, topic), err
}

func (b *meteredBus) wrapConsumer(c transport.Consumer, topic string) transport.Consumer {
	layer, ok := b.t.layer[topic]
	if c == nil || !b.t.on || !ok {
		return c
	}
	return &tracedConsumer{Consumer: c, t: b.t, st: &b.t.stats[layer], name: "poll." + b.t.tiers[layer], root: layer == len(b.t.tiers)-1}
}

func (b *meteredBus) GroupLag(topic, group string) (int64, error) {
	if !b.t.on {
		return b.Bus.GroupLag(topic, group)
	}
	start := time.Now()
	lag, err := b.Bus.GroupLag(topic, group)
	b.t.groupLag.Add(1)
	if v := b.t.probing.Load(); v != nil {
		v.probe(start, time.Now())
	}
	return lag, err
}

// meteredProducer wraps one producer of the bus.
type meteredProducer struct {
	transport.Producer
	b *meteredBus
	// parent is the span ID of the valve push in progress on this producer
	// (0 outside pushes or for non-valve producers).
	parent atomic.Int64
}

func (p *meteredProducer) account(topic string, records int, bytes int, start time.Time) {
	if topic == p.b.rootTopic {
		p.b.rootBytes.Add(int64(bytes))
	}
	t := p.b.t
	if !t.on {
		return
	}
	layer, ok := t.layer[topic]
	if !ok {
		return
	}
	end := t.now()
	d := int64(time.Since(start))
	st := &t.stats[layer]
	st.sendNs.Add(d)
	st.sends.Add(1)
	st.sendRecords.Add(int64(records))
	st.sendBytes.Add(int64(bytes))
	t.record("send."+t.tiers[layer], t.ids.Add(1), p.parent.Load(), end-d, end)
}

// clock reads the time only when tracing, keeping untraced sends free of
// clock reads.
func (p *meteredProducer) clock() time.Time {
	if p.b.t.on {
		return time.Now()
	}
	return time.Time{}
}

func (p *meteredProducer) capture(v []byte) {
	t := p.b.t
	if !t.on {
		return
	}
	t.mu.Lock()
	if len(t.payloads) < maxPayloads {
		t.payloads = append(t.payloads, append([]byte(nil), v...))
	}
	t.mu.Unlock()
}

func (p *meteredProducer) Send(topic string, key, value []byte) (int, int64, error) {
	start := p.clock()
	part, off, err := p.Producer.Send(topic, key, value)
	p.account(topic, 1, len(value), start)
	return part, off, err
}

func (p *meteredProducer) SendWatermarked(topic string, key, value []byte, wm transport.Watermark) (int, int64, error) {
	start := p.clock()
	part, off, err := p.Producer.SendWatermarked(topic, key, value, wm)
	p.account(topic, 1, len(value), start)
	return part, off, err
}

func (p *meteredProducer) SendBatch(topic string, recs []transport.Record) error {
	bytes := 0
	for i := range recs {
		bytes += len(recs[i].Value)
	}
	if p.b.t.on && len(recs) > 0 {
		p.capture(recs[0].Value)
	}
	start := p.clock()
	err := p.Producer.SendBatch(topic, recs)
	p.account(topic, len(recs), bytes, start)
	return err
}

func (p *meteredProducer) SendTo(topic string, partition int, key, value []byte) (int64, error) {
	start := p.clock()
	off, err := p.Producer.SendTo(topic, partition, key, value)
	p.account(topic, 1, len(value), start)
	return off, err
}

func (p *meteredProducer) SendToWatermarked(topic string, partition int, key, value []byte, wm transport.Watermark) (int64, error) {
	start := p.clock()
	off, err := p.Producer.SendToWatermarked(topic, partition, key, value, wm)
	p.account(topic, 1, len(value), start)
	return off, err
}

// tracedConsumer times polls. Time between an empty poll and the next poll
// is the consumer's wait for input.
type tracedConsumer struct {
	transport.Consumer
	t          *tracer
	st         *tierStats
	name       string
	root       bool
	emptySince time.Time
}

func (c *tracedConsumer) observe(start time.Time, recs []transport.Record) {
	end := time.Now()
	n := len(recs)
	if c.root && n > 0 {
		c.t.observeWatermarks(recs)
	}
	if !c.emptySince.IsZero() {
		c.st.waitNs.Add(int64(start.Sub(c.emptySince)))
		c.st.waits.Add(1)
		c.emptySince = time.Time{}
	}
	c.st.polls.Add(1)
	c.st.pollNs.Add(int64(end.Sub(start)))
	c.st.pollRecords.Add(int64(n))
	if n == 0 {
		c.st.pollEmpty.Add(1)
		c.emptySince = end
		return // empty polls are counted, not kept as spans
	}
	s := int64(start.Sub(c.t.epoch))
	c.t.record(c.name, c.t.ids.Add(1), 0, s, s+int64(end.Sub(start)))
}

func (c *tracedConsumer) TryPollInto(dst []transport.Record, max int) ([]transport.Record, error) {
	start := time.Now()
	before := len(dst)
	recs, err := c.Consumer.TryPollInto(dst, max)
	c.observe(start, recs[before:])
	return recs, err
}

func (c *tracedConsumer) TryPoll(max int) ([]transport.Record, error) {
	start := time.Now()
	recs, err := c.Consumer.TryPoll(max)
	c.observe(start, recs)
	return recs, err
}

func (c *tracedConsumer) PollInto(ctx context.Context, dst []transport.Record, max int) ([]transport.Record, error) {
	start := time.Now()
	before := len(dst)
	recs, err := c.Consumer.PollInto(ctx, dst, max)
	c.observe(start, recs[before:])
	return recs, err
}

func (c *tracedConsumer) Poll(ctx context.Context, max int) ([]transport.Record, error) {
	start := time.Now()
	recs, err := c.Consumer.Poll(ctx, max)
	c.observe(start, recs)
	return recs, err
}

// samplers wraps a SamplerFactory so every interval close is timed and
// counted per tier, and the root's output is captured for offline query
// timing.
func (t *tracer) samplers(f core.SamplerFactory) core.SamplerFactory {
	if !t.on {
		return f
	}
	return func(layer, node int, seed uint64) sample.Sampler {
		return &timedSampler{Sampler: f(layer, node, seed), t: t, layer: layer}
	}
}

type timedSampler struct {
	sample.Sampler
	t     *tracer
	layer int
}

func (s *timedSampler) SampleInterval(pairs []stream.Batch, budget int) []stream.Batch {
	start := time.Now()
	out := s.Sampler.SampleInterval(pairs, budget)
	d := time.Since(start)
	st := &s.t.stats[s.layer]
	in, kept := 0, 0
	strata := map[stream.SourceID]struct{}{}
	for _, b := range pairs {
		in += len(b.Items)
		strata[b.Source] = struct{}{}
	}
	for _, b := range out {
		kept += len(b.Items)
	}
	st.sampleNs.Add(int64(d))
	st.sampleIn.Add(int64(in))
	st.sampleOut.Add(int64(kept))
	st.strata.Add(int64(len(strata)))
	st.intervals.Add(1)
	end := s.t.now()
	s.t.record("sample."+s.t.tiers[s.layer], s.t.ids.Add(1), 0, end-int64(d), end)
	if s.layer == len(s.t.tiers)-1 && kept > 0 {
		s.t.captureTheta(out)
	}
	return out
}

// captureTheta keeps a copy of one root member's closed-window sample,
// merged per event window across root shards.
func (t *tracer) captureTheta(out []stream.Batch) {
	var first time.Time
	for _, b := range out {
		if len(b.Items) > 0 {
			first = b.Items[0].Ts
			break
		}
	}
	key := first.UnixNano() - first.UnixNano()%int64(t.window)
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.rootTheta[key]; !ok && len(t.rootTheta) >= maxThetaWindows {
		return
	}
	for _, b := range out {
		t.rootTheta[key] = append(t.rootTheta[key], b.Clone())
	}
}

// valveTracer times the valve pushes: push duration, and the stretch between
// a push's first and last lag probe, which is time spent blocked behind
// backpressure.
type valveTracer struct {
	t         *tracer
	producers []*meteredProducer
	pushNs    atomic.Int64
	blockedNs atomic.Int64
	probingNs atomic.Int64 // from a push's first probe's start to its last probe's end
	pushes    atomic.Int64
	probes    atomic.Int64
	items     atomic.Int64
}

// probeWindow records the lag probes made during one push: when the first
// and the last began, and when the last ended.
type probeWindow struct {
	mu                 sync.Mutex
	n                  int64
	first, last, ended time.Time
}

func (w *probeWindow) probe(start, end time.Time) {
	w.mu.Lock()
	if w.n == 0 {
		w.first = start
	}
	w.last, w.ended = start, end
	w.n++
	w.mu.Unlock()
}

func (v *valveTracer) bind(slot int, p *meteredProducer) {
	for len(v.producers) <= slot {
		v.producers = append(v.producers, nil)
	}
	v.producers[slot] = p
}

// push runs one valve push under a span. Probe attribution assumes pushes
// are not concurrent, which holds for the benchmark's single pusher.
func (v *valveTracer) push(d deployment, slot int, items []stream.Item) error {
	if !v.t.on {
		return d.push(slot, items)
	}
	id := v.t.ids.Add(1)
	pw := &probeWindow{}
	v.t.probing.Store(pw)
	p := v.producers[slot]
	p.parent.Store(id)
	start := time.Now()
	err := d.push(slot, items)
	dur := time.Since(start)
	p.parent.Store(0)
	v.t.probing.Store(nil)
	v.pushNs.Add(int64(dur))
	v.pushes.Add(1)
	v.items.Add(int64(len(items)))
	pw.mu.Lock()
	v.probes.Add(pw.n)
	if pw.n > 0 {
		v.blockedNs.Add(int64(pw.last.Sub(pw.first)))
		v.probingNs.Add(int64(pw.ended.Sub(pw.first)))
	}
	pw.mu.Unlock()
	s := int64(start.Sub(v.t.epoch))
	v.t.record("valve.push", id, 0, s, s+int64(dur))
	return err
}

// spanSummary is the count and total duration of the kept spans per name.
func (t *tracer) spanSummary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct {
		n  int
		ns int64
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.ns += s.End - s.Start
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-14s %8d spans %10.3f ms\n", n, by[n].n, float64(by[n].ns)/1e6)
	}
	return sb.String()
}
