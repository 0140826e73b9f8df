package main

import (
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/fl"
	"repro/internal/opt"
	"repro/internal/simnet"
	"repro/internal/tiering"
)

// The traced run's layer spans come from wrappers around the program's
// public seams — fl.Fabric, simnet.Clock, codec.Codec, opt.Optimizer and
// the observer and evaluation hooks — each timing the calls it forwards.
// A wrapper must expose exactly the optional interfaces its inner value
// has: the program type-asserts codec.Verbatim, SyncDriven() and
// fl.SyncFabric on fabrics and simnet.SyncScheduler on clocks, and hiding
// one would change the code path being measured (Raw would start
// encoding; edge engines would stop deferring their continuations).

// span accumulates busy time and call count; safe for concurrent use.
type span struct{ ns, n atomic.Int64 }

func (s *span) add(d int64) {
	s.ns.Add(d)
	s.n.Add(1)
}

// tracer holds every layer's running totals.
type tracer struct {
	dispatch, fold, eval, encode, decode, opt, train, partition span
	dispatchClients, encodeBytes, events                        atomic.Int64

	// Start of the clock callback now running: cbStart for plain events
	// (flat runs execute one at a time), syncStart for synchronisation
	// events, which run alone even under a parallel driver.
	cbStart, syncStart atomic.Int64
}

// counters is a tracer snapshot.
type counters struct {
	dispatchNs, dispatchN, foldNs, evalNs         int64
	encodeNs, encodeN, decodeNs, optNs, optN      int64
	trainNs, dispatchClients, encodeBytes, events int64
}

func (t *tracer) snapshot() counters {
	return counters{
		dispatchNs: t.dispatch.ns.Load(), dispatchN: t.dispatch.n.Load(),
		foldNs: t.fold.ns.Load(), evalNs: t.eval.ns.Load(),
		encodeNs: t.encode.ns.Load(), encodeN: t.encode.n.Load(),
		decodeNs: t.decode.ns.Load(),
		optNs:    t.opt.ns.Load(), optN: t.opt.n.Load(),
		trainNs:         t.train.ns.Load(),
		dispatchClients: t.dispatchClients.Load(),
		encodeBytes:     t.encodeBytes.Load(),
		events:          t.events.Load(),
	}
}

func (c counters) minus(o counters) counters {
	return counters{
		dispatchNs: c.dispatchNs - o.dispatchNs, dispatchN: c.dispatchN - o.dispatchN,
		foldNs: c.foldNs - o.foldNs, evalNs: c.evalNs - o.evalNs,
		encodeNs: c.encodeNs - o.encodeNs, encodeN: c.encodeN - o.encodeN,
		decodeNs: c.decodeNs - o.decodeNs,
		optNs:    c.optNs - o.optNs, optN: c.optN - o.optN,
		trainNs:         c.trainNs - o.trainNs,
		dispatchClients: c.dispatchClients - o.dispatchClients,
		encodeBytes:     c.encodeBytes - o.encodeBytes,
		events:          c.events - o.events,
	}
}

// ---------------------------------------------------------------------------
// fl.Fabric

// syncDriven is the fabric capability fl.Method.RunOn asserts to decide
// whether pacer continuations are deferred out of fold callbacks.
type syncDriven interface{ SyncDriven() bool }

// fabric forwards every fl.Fabric method to the inner fabric, stamping
// dispatches on the probe and, when traced, timing Dispatch, Partition
// and Evaluate. Embedding the interface promotes only fl.Fabric's own
// methods; wrapFabric adds the optional ones the inner value has.
type fabric struct {
	fl.Fabric
	p  *probe
	tr *tracer
	// countDelivered counts the results that reach the server at the
	// fabric, for engines with no observer attached (edge engines).
	countDelivered bool
}

type fabricSD struct {
	*fabric
	syncDriven
}

type fabricAS struct {
	*fabric
	fl.SyncFabric
}

type fabricSDAS struct {
	*fabric
	syncDriven
	fl.SyncFabric
}

// wrapFabric wraps inner, exposing exactly inner's optional interfaces.
func wrapFabric(inner fl.Fabric, p *probe, tr *tracer, countDelivered bool) fl.Fabric {
	f := &fabric{Fabric: inner, p: p, tr: tr, countDelivered: countDelivered}
	sd, hasSD := inner.(syncDriven)
	as, hasAS := inner.(fl.SyncFabric)
	switch {
	case hasSD && hasAS:
		return fabricSDAS{f, sd, as}
	case hasSD:
		return fabricSD{f, sd}
	case hasAS:
		return fabricAS{f, as}
	}
	return f
}

func (f *fabric) Dispatch(comm *fl.Comm, cohort []int, now float64, global []float64, lc fl.LocalConfig, deliver func([]fl.TrainResult, error)) {
	f.p.dispatch(len(cohort))
	if f.countDelivered {
		inner := deliver
		deliver = func(rs []fl.TrainResult, err error) {
			n := int64(0)
			for i := range rs {
				if !rs[i].Dropped {
					n++
				}
			}
			f.p.delivered.Add(n)
			inner(rs, err)
		}
	}
	if f.tr == nil {
		f.Fabric.Dispatch(comm, cohort, now, global, lc, deliver)
		return
	}
	t0 := nanotime()
	f.Fabric.Dispatch(comm, cohort, now, global, lc, deliver)
	f.tr.dispatch.add(nanotime() - t0)
	f.tr.dispatchClients.Add(int64(len(cohort)))
}

func (f *fabric) Partition(cfg fl.RunConfig) (*tiering.Tiers, error) {
	if f.tr == nil {
		return f.Fabric.Partition(cfg)
	}
	t0 := nanotime()
	t, err := f.Fabric.Partition(cfg)
	f.tr.partition.add(nanotime() - t0)
	return t, err
}

func (f *fabric) Evaluate(w []float64) (fl.Result, bool) {
	if f.tr == nil {
		return f.Fabric.Evaluate(w)
	}
	t0 := nanotime()
	r, ok := f.Fabric.Evaluate(w)
	f.tr.eval.add(nanotime() - t0)
	return r, ok
}

// ---------------------------------------------------------------------------
// simnet.Clock

// clock counts and stamps every callback the wrapped clock runs.
type clock struct {
	simnet.Clock
	tr *tracer
}

type clockSync struct {
	*clock
	s simnet.SyncScheduler
}

// wrapClock wraps inner, exposing simnet.SyncScheduler iff inner has it.
func wrapClock(inner simnet.Clock, tr *tracer) simnet.Clock {
	c := &clock{Clock: inner, tr: tr}
	if s, ok := inner.(simnet.SyncScheduler); ok {
		return clockSync{c, s}
	}
	return c
}

func (c *clock) At(t float64, fn func()) {
	c.Clock.At(t, func() {
		c.tr.events.Add(1)
		c.tr.cbStart.Store(nanotime())
		fn()
	})
}

func (c clockSync) AtSync(t float64, fn func()) {
	c.s.AtSync(t, func() {
		c.tr.events.Add(1)
		c.tr.syncStart.Store(nanotime())
		fn()
	})
}

// ---------------------------------------------------------------------------
// codec.Codec

// codecWrap times Encode and Decode and counts encoded bytes.
type codecWrap struct {
	codec.Codec
	tr *tracer
}

type verbatimWrap struct {
	*codecWrap
	v codec.Verbatim
}

// wrapCodec wraps inner, exposing codec.Verbatim iff inner has it.
func wrapCodec(inner codec.Codec, tr *tracer) codec.Codec {
	c := &codecWrap{Codec: inner, tr: tr}
	if v, ok := inner.(codec.Verbatim); ok {
		return verbatimWrap{c, v}
	}
	return c
}

func (c *codecWrap) Encode(w []float64) []byte {
	t0 := nanotime()
	b := c.Codec.Encode(w)
	c.tr.encode.add(nanotime() - t0)
	c.tr.encodeBytes.Add(int64(len(b)))
	return b
}

func (c *codecWrap) Decode(data []byte, out []float64) error {
	t0 := nanotime()
	err := c.Codec.Decode(data, out)
	c.tr.decode.add(nanotime() - t0)
	return err
}

func (c verbatimWrap) PayloadBytes(n int) int { return c.v.PayloadBytes(n) }

// ---------------------------------------------------------------------------
// opt.Optimizer

// optWrap times one live client's optimizer steps and its local rounds:
// fl.TrainLocal resets the optimizer when a round starts and steps it once
// per batch, so a round spans from Reset to the end of its last Step. The
// span is added at the next Reset (or by flush), keeping per-round state
// private to the client's goroutine.
type optWrap struct {
	opt.Optimizer
	tr              *tracer
	roundStart, end int64
}

func (o *optWrap) Reset() {
	o.flush()
	o.roundStart = nanotime()
	o.Optimizer.Reset()
}

func (o *optWrap) Step(w, g []float64) {
	t0 := nanotime()
	o.Optimizer.Step(w, g)
	o.end = nanotime()
	o.tr.opt.add(o.end - t0)
}

func (o *optWrap) flush() {
	if o.end > o.roundStart && o.roundStart > 0 {
		o.tr.train.add(o.end - o.roundStart)
	}
	o.roundStart, o.end = 0, 0
}
