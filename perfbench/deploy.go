package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/approxiot/approxiot/internal/core"
	"github.com/approxiot/approxiot/internal/mq"
	"github.com/approxiot/approxiot/internal/stream"
	"github.com/approxiot/approxiot/internal/transport"
	"github.com/approxiot/approxiot/internal/transport/tcp"
)

// deployment is one opened program under test: the whole tree in one
// session (OpenLive) or split into an edge and a datacenter tier over TCP
// (OpenNode). Push is called from the benchmark's pusher goroutines only.
type deployment interface {
	push(slot int, items []stream.Item) error
	// ingestBus is the unwrapped bus the valves publish through.
	ingestBus() transport.Bus
	// finish ends ingestion, drains, closes the program, and returns the
	// run's final accounting.
	finish() (final, error)
	// abort closes the program without draining what is in flight.
	abort()
	// receipts returns the window results received so far.
	receipts() []receipt
	// infra returns the function that releases what stands in for other
	// processes — the broker daemon and the tiers' connections — to be
	// called after finish or abort; nil when there is none.
	infra() func()
}

// final is a closed run's accounting as the program reports it.
type final struct {
	produced  int64
	late      int64
	lateInput float64
	subDrops  int64
	windows   []core.WindowResult
	wire      transport.Counters // TCP client counters (split deployment)
}

// receipt is one window result as the benchmark received it.
type receipt struct {
	at  time.Time
	win core.WindowResult
}

// receiver collects window results with their arrival instants.
type receiver struct {
	mu   sync.Mutex
	got  []receipt
	done chan struct{}
}

func (r *receiver) add(w core.WindowResult) {
	now := time.Now()
	r.mu.Lock()
	r.got = append(r.got, receipt{at: now, win: w})
	r.mu.Unlock()
}

func (r *receiver) all() []receipt {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]receipt(nil), r.got...)
}

// liveDeployment is the whole tree in one process over an in-memory bus.
type liveDeployment struct {
	s      *core.LiveSession
	cancel context.CancelFunc
	bus    *meteredBus
	ings   []*core.Ingester
	recv   *receiver
}

func openLive(cfg core.LiveConfig, bus *meteredBus, valves *valveTracer) (*liveDeployment, error) {
	cfg.Bus = bus
	ctx, cancel := context.WithCancel(context.Background())
	s, err := core.OpenLive(ctx, cfg)
	if err != nil {
		cancel()
		bus.Close()
		return nil, err
	}
	d := &liveDeployment{s: s, cancel: cancel, bus: bus, recv: &receiver{done: make(chan struct{})}}
	for slot := 0; slot < cfg.Spec.Sources; slot++ {
		in, err := s.Ingester(slot)
		if err != nil {
			d.abort()
			return nil, err
		}
		d.ings = append(d.ings, in)
		valves.bind(slot, bus.lastProducer())
	}
	ch := s.Windows()
	go func() {
		defer close(d.recv.done)
		for w := range ch {
			d.recv.add(w)
		}
	}()
	return d, nil
}

func (d *liveDeployment) receipts() []receipt { return d.recv.all() }

func (d *liveDeployment) push(slot int, items []stream.Item) error {
	return d.ings[slot].Push(items...)
}

func (d *liveDeployment) ingestBus() transport.Bus { return d.bus.Bus }

// abort cancels the session's context, which stops it without a drain.
func (d *liveDeployment) abort() {
	d.cancel()
	<-d.s.Done()
	<-d.recv.done
	d.bus.Close()
}

// infra is nil: the in-process bus closes with the session.
func (d *liveDeployment) infra() func() { return nil }

func (d *liveDeployment) finish() (final, error) {
	defer d.cancel()
	res, err := d.s.Close()
	<-d.recv.done
	snap := d.s.Snapshot()
	d.bus.Close()
	if err != nil {
		return final{}, err
	}
	return final{
		produced:  res.Produced,
		late:      res.LateDropped,
		lateInput: res.LateDroppedInput,
		subDrops:  snap.SubscriberDrops,
		windows:   res.Windows,
	}, nil
}

// splitDeployment is the paper's edge-to-datacenter split: a TCP broker
// daemon, an edge tier (the valves plus the edge layers) and a datacenter
// tier (the root), each tier on its own client connection as separate
// processes would be.
type splitDeployment struct {
	broker     *mq.Broker
	srv        *tcp.Server
	edgeC      *tcp.Client
	rootC      *tcp.Client
	edgeBus    *meteredBus
	rootBus    *meteredBus
	edge, root *core.NodeSession
	pushers    []*core.NodePusher
	recv       *receiver
}

func openSplit(cfg core.LiveConfig, edgeLayers []int, wrap func(transport.Bus) *meteredBus, valves *valveTracer) (d *splitDeployment, err error) {
	d = &splitDeployment{broker: mq.NewBroker(), recv: &receiver{done: make(chan struct{})}}
	close(d.recv.done) // results arrive through OnWindow, not a channel
	defer func() {
		if err != nil {
			d.abort()
			d.closeInfra()
		}
	}()
	if d.srv, err = tcp.Listen("127.0.0.1:0", transport.WrapBroker(d.broker)); err != nil {
		return nil, err
	}
	addr := d.srv.Addr().String()
	if d.rootC, err = tcp.Dial(addr); err != nil {
		return nil, err
	}
	if d.edgeC, err = tcp.Dial(addr); err != nil {
		return nil, err
	}
	d.rootBus, d.edgeBus = wrap(d.rootC), wrap(d.edgeC)

	rootCfg := cfg
	rootCfg.Bus = d.rootBus
	rootCfg.OnWindow = d.recv.add
	if d.root, err = core.OpenNode(context.Background(), rootCfg, core.NodeTier{Root: true}); err != nil {
		return nil, fmt.Errorf("open datacenter tier: %w", err)
	}
	edgeCfg := cfg
	edgeCfg.Bus = d.edgeBus
	if d.edge, err = core.OpenNode(context.Background(), edgeCfg, core.NodeTier{Layers: edgeLayers, Ingest: true}); err != nil {
		return nil, fmt.Errorf("open edge tier: %w", err)
	}
	for slot := 0; slot < cfg.Spec.Sources; slot++ {
		p, err := d.edge.Pusher(slot)
		if err != nil {
			return nil, err
		}
		d.pushers = append(d.pushers, p)
		valves.bind(slot, d.edgeBus.lastProducer())
	}
	return d, nil
}

func (d *splitDeployment) receipts() []receipt { return d.recv.all() }

func (d *splitDeployment) push(slot int, items []stream.Item) error {
	return d.pushers[slot].Push(items...)
}

func (d *splitDeployment) ingestBus() transport.Bus { return d.edgeBus.Bus }

func (d *splitDeployment) finish() (final, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.edge.FinishIngest()
	if err == nil {
		err = d.root.WaitDone(ctx)
	}
	if err == nil {
		err = d.edge.WaitDone(ctx)
	}
	if err == nil {
		err = d.edge.Drain(ctx)
	}
	er, rr := d.edge.Close(), d.root.Close()
	d.edge, d.root, d.pushers = nil, nil, nil
	wire := d.edgeC.Counters()
	rc := d.rootC.Counters()
	wire.BytesOut += rc.BytesOut
	wire.BytesIn += rc.BytesIn
	wire.Reconnects += rc.Reconnects
	wire.SendErrors += rc.SendErrors
	wire.PollErrors += rc.PollErrors
	if err != nil {
		return final{}, err
	}
	return final{
		produced:  er.Produced,
		late:      er.LateDropped + rr.LateDropped,
		lateInput: er.LateDroppedInput + rr.LateDroppedInput,
		windows:   rr.Windows,
		wire:      wire,
	}, nil
}

// abort closes both tiers without ending ingestion.
func (d *splitDeployment) abort() {
	if d.edge != nil {
		d.edge.Close()
	}
	if d.root != nil {
		d.root.Close()
	}
	d.edge, d.root, d.pushers = nil, nil, nil
}

func (d *splitDeployment) infra() func() { return d.closeInfra }

// closeInfra closes the tiers' connections, the broker daemon and its
// broker. Closing the daemon takes about two seconds (see README.md,
// Findings), so callers close it after measuring.
func (d *splitDeployment) closeInfra() {
	if d.edgeC != nil {
		d.edgeC.Close()
	}
	if d.rootC != nil {
		d.rootC.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
	d.broker.Close()
}
