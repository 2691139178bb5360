package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/approxiot/approxiot/internal/query"
	"github.com/approxiot/approxiot/internal/stream"
)

// evalKinds are the query kinds timed offline on the captured root samples,
// on every workload, so each kind's cost reads the same way everywhere.
var evalKinds = []query.Kind{query.Sum, query.Count, query.TopKOf(geoTopK), query.QuantileOf(geoQuantile)}

// offlineReps repeats each offline timing so that sub-microsecond costs
// are measured over a long enough stretch.
const offlineReps = 20

// codecCost times the batch codec on payloads captured off the wire:
// decode every payload, then encode the decoded batches again.
func codecCost(payloads [][]byte) (encNs, decNs, bytesPerItem float64) {
	var batches []stream.Batch
	var bytes, items int
	for _, p := range payloads {
		b, err := stream.UnmarshalBatch(p)
		if err != nil || len(b.Items) == 0 {
			continue // heartbeats and control records carry no items
		}
		batches = append(batches, b)
		bytes += len(p)
		items += len(b.Items)
	}
	if items == 0 {
		return 0, 0, 0
	}
	var scratch stream.Batch
	start := time.Now()
	for r := 0; r < offlineReps; r++ {
		for _, p := range payloads {
			_ = stream.UnmarshalBatchInto(&scratch, p)
		}
	}
	decNs = float64(time.Since(start)) / float64(offlineReps*items)
	var buf []byte
	start = time.Now()
	for r := 0; r < offlineReps; r++ {
		for _, b := range batches {
			buf = b.AppendMarshal(buf[:0])
		}
	}
	encNs = float64(time.Since(start)) / float64(offlineReps*items)
	return encNs, decNs, float64(bytes) / float64(items)
}

// queryCost times the engine on each captured root window, per kind, in
// microseconds per window.
func queryCost(theta map[int64][]stream.Batch) map[query.Kind]float64 {
	out := map[query.Kind]float64{}
	if len(theta) == 0 {
		return out
	}
	e := query.NewEngine()
	for _, k := range evalKinds {
		start := time.Now()
		for r := 0; r < offlineReps; r++ {
			for _, th := range theta {
				_ = e.Run(k, th)
			}
		}
		out[k] = float64(time.Since(start)) / 1e3 / float64(offlineReps*len(theta))
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// perLayer derives the per-layer metrics from the traced phase (runtime
// figures come from the untraced one, which tracing cannot disturb) and
// renders the per-layer table with its reconciliation against CPU.
func perLayer(w *workloadDef, s *slab, plain, tr *phase) (map[string]metric, string) {
	t, vt := tr.t, tr.vt
	items := tr.fin.produced
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	put("valve.push_ns_per_item", "ns", ratio(vt.pushNs.Load(), vt.items.Load()))
	put("valve.blocked_ns_per_item", "ns", ratio(vt.blockedNs.Load(), vt.items.Load()))
	put("valve.lag_probes_per_push", "count", ratio(vt.probes.Load(), vt.pushes.Load()))

	var sendNs, pollNs, sampleNs, sampleIn, edgeOut, calls int64
	for i, tier := range t.tiers {
		st := &t.stats[i]
		polls, empty := st.polls.Load(), st.pollEmpty.Load()
		put("transport.send_ns_per_record."+tier, "ns", ratio(st.sendNs.Load(), st.sendRecords.Load()))
		put("transport.records_per_send."+tier, "count", ratio(st.sendRecords.Load(), st.sends.Load()))
		put("transport.bytes_per_item."+tier, "B", ratio(st.sendBytes.Load(), items))
		put("transport.records_per_poll."+tier, "count", ratio(st.pollRecords.Load(), polls-empty))
		put("transport.poll_empty_ratio."+tier, "ratio", ratio(empty, polls))
		put("transport.poll_wait_ms."+tier, "ms", ratio(st.waitNs.Load(), st.waits.Load())/1e6)
		put("sample.ns_per_item_in."+tier, "ns", ratio(st.sampleNs.Load(), st.sampleIn.Load()))
		put("sample.keep_ratio."+tier, "ratio", ratio(st.sampleOut.Load(), st.sampleIn.Load()))
		put("sample.strata_per_interval."+tier, "count", ratio(st.strata.Load(), st.intervals.Load()))
		put("sample.intervals."+tier, "count", float64(st.intervals.Load()))
		sendNs += st.sendNs.Load()
		pollNs += st.pollNs.Load()
		sampleNs += st.sampleNs.Load()
		sampleIn += st.sampleIn.Load()
		if i < len(t.tiers)-1 {
			edgeOut += st.sampleOut.Load()
		}
		calls += st.sends.Load() + polls
	}
	put("transport.group_lag_calls", "count", float64(t.groupLag.Load()))
	calls += t.groupLag.Load()

	wire := tr.fin.wire
	if !w.split {
		calls = 0 // the in-process bus makes no network calls
	}
	put("tcp.calls_per_1k_items", "count", ratio(calls*1000, items))
	put("tcp.bytes_out_per_item", "B", ratio(wire.BytesOut, items))
	put("tcp.bytes_in_per_item", "B", ratio(wire.BytesIn, items))
	put("tcp.reconnects", "count", float64(wire.Reconnects))

	t.mu.Lock()
	payloads, theta := t.payloads, t.rootTheta
	t.mu.Unlock()
	encNs, decNs, wireBytes := codecCost(payloads)
	put("stream.encode_ns_per_item", "ns", encNs)
	put("stream.decode_ns_per_item", "ns", decNs)
	put("stream.bytes_per_item", "B", wireBytes)
	qc := queryCost(theta)
	for _, k := range evalKinds {
		put("query.eval_us_per_window."+strings.ToLower(k.String()), "us", qc[k])
	}
	var evalUs float64 // the kinds this workload registers
	for _, k := range w.cfg.Queries {
		evalUs += qc[k]
	}

	put("root.close_delay_ms_p50", "ms", tr.closeDelayP50(s))
	put("session.close_s", "s", tr.closeDur.Seconds())
	put("session.ingest_lag_max", "count", float64(tr.lagMax))
	put("session.subscriber_drops", "count", float64(tr.fin.subDrops))
	put("runtime.gc_cpu_share", "ratio", plain.read.gcCPUShare)
	put("runtime.gc_cycles", "count", plain.read.gcCycles)
	put("runtime.sched_latency_p99_us", "us", plain.read.schedP99Us)
	put("gen.lag_ms_max", "ms", float64(tr.loop.lagMax)/1e6)
	put("gen.ns_per_item", "ns", ratio(tr.loop.genNs, items))

	// Reconciliation: busy time measured (or costed offline) at each seam,
	// per item produced, against the traced phase's process CPU per item.
	// Over TCP a send, a poll or a lag probe is a round trip: its time is
	// mostly waiting, so those rows are shown and left out of the sum.
	per := func(ns float64) float64 { return ns / float64(items) }
	valveSelf := vt.pushNs.Load() - t.stats[0].sendNs.Load() - vt.probingNs.Load()
	type row struct {
		layer string
		ns    float64
		wait  bool
	}
	rows := []row{
		{"gen: copy and restamp (benchmark)", per(float64(tr.loop.genNs)), false},
		{"core valve: push self time", per(float64(valveSelf)), false},
		{"core valve: lag probes", per(float64(vt.probingNs.Load())), w.split},
		{"transport: sends", per(float64(sendNs)), w.split},
		{"transport: polls", per(float64(pollNs)), w.split},
		{"stream: decode (offline cost × items in)", decNs * float64(sampleIn) / float64(items), false},
		{"stream: member encode (offline cost × items out)", encNs * float64(edgeOut) / float64(items), false},
		{"sample: interval close", per(float64(sampleNs)), false},
		{"query: root evaluation (offline cost × windows)", evalUs * 1e3 * float64(len(tr.fin.windows)) / float64(items), false},
	}
	cpu := tr.read.cpuSeconds * 1e9 / float64(items)
	plainCPU := plain.read.cpuSeconds * 1e9 / float64(plain.fin.produced)
	var busy float64
	var sb strings.Builder
	fmt.Fprintf(&sb, "per-layer table — %s, traced half (%d items, %d windows)\n", w.name, items, len(tr.fin.windows))
	fmt.Fprintf(&sb, "  %-50s %12s %8s\n", "layer", "ns/item", "of CPU")
	for _, r := range rows {
		if r.wait {
			fmt.Fprintf(&sb, "  %-50s %12.1f   (TCP round trips; wall time, not in the sum)\n", r.layer, r.ns)
			continue
		}
		busy += r.ns
		fmt.Fprintf(&sb, "  %-50s %12.1f %7.1f%%\n", r.layer, r.ns, 100*r.ns/cpu)
	}
	gap := 1 - busy/cpu
	overhead := cpu/plainCPU - 1
	fmt.Fprintf(&sb, "  %-50s %12.1f %7.1f%%\n", "sum of layers", busy, 100*busy/cpu)
	fmt.Fprintf(&sb, "  %-50s %12.1f\n", "process CPU (getrusage), traced", cpu)
	fmt.Fprintf(&sb, "  %-50s %12.1f\n", "process CPU (getrusage), untraced half", plainCPU)
	fmt.Fprintf(&sb, "  reconciliation gap: %.1f%% of CPU is outside the timed seams", 100*gap)
	if gap > 0.15 {
		sb.WriteString(" — FINDING: over 15%; node ingest, event-window and watermark bookkeeping, GC, the scheduler and (over TCP) the client and broker daemon are not seams the benchmark can wrap")
	}
	fmt.Fprintf(&sb, "\n  tracing overhead: %+.1f%% CPU per item against the untraced half\n", 100*overhead)
	sb.WriteString(t.spanSummary())
	put("trace.busy_ns_per_item", "ns", busy)
	put("trace.cpu_ns_per_item", "ns", cpu)
	put("trace.reconcile_gap", "ratio", gap)
	put("trace.overhead", "ratio", overhead)
	return m, sb.String()
}

// closeDelayP50 is the median, over windows, of the time from the first
// root-side poll of a record whose watermark passes the window's end to the
// window's result arriving: the wait for the slowest chain plus the close
// ticker's phase.
func (ph *phase) closeDelayP50(s *slab) float64 {
	steps := ph.t.watermarkSteps()
	var delays []float64
	for _, r := range ph.rec {
		end := r.win.End
		i := sort.Search(len(steps), func(i int) bool { return !steps[i].wm.Before(end) })
		if i == len(steps) || steps[i].at.After(r.at) {
			continue
		}
		delays = append(delays, float64(r.at.Sub(steps[i].at))/1e6)
	}
	if len(delays) == 0 {
		return 0
	}
	return quantile(delays, 0.5)
}
