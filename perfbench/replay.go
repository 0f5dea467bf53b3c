package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/hds"
	"repro/internal/kvstore"
	"repro/internal/merge"
	"repro/internal/netfront"
	"repro/internal/segment"
)

// The traced run. Layers behind the socket cannot be reached from
// outside the server, so the traced run replays a kv workload's request
// streams in-process: it groups the requests into windows of the size
// the untraced run observed (netfront.window_ops) and makes, per
// window, the calls the server's dispatcher makes — one snapshot, key
// build, gather and materialization for the reads, one Apply and one
// durability ack for the writes, a CompareApply per cas — with a span
// around each call.

// casPin is the pinned snapshot a gets saw; the paired cas rebases
// against it, as the server's token registry does.
type casPin struct {
	seg  segment.Seg
	size uint64
}

// replayConn is one replayed connection. Like a network client it sends
// its next burst only after the previous one has executed.
type replayConn struct {
	gen    *opGen
	model  *writerModel
	burst  []kvOp
	pos    int
	busyIn int // window that took the burst's last op; -1 when none
	cas    []kvOp
}

type replayer struct {
	spec  kvSpec
	codec *valueCodec
	s     *kvstore.HicampServer
	res   *result
	tr    *tracer
	conns []*replayConn
	width int
	keys  [][]byte // protocol key bytes by key id

	win, writeWins int
	rr             int
	ops            uint64

	// Counters of the replay.
	ws                    segment.WriteStats
	sets, casTried, casOK uint64
	userWritten           uint64

	// Scratch reused from window to window.
	lines                 [][]byte
	cmd                   netfront.Command
	window, reads, writes []*kvOp
	rkeys, dkeys          [][]byte
	ks, vstrs             []hds.String
	found                 []bool
	vals                  [][]byte
	flat                  []byte
}

func newReplayer(spec kvSpec, codec *valueCodec, s *kvstore.HicampServer, res *result, seed int64, windowOps float64) *replayer {
	p := &replayer{spec: spec, codec: codec, s: s, res: res, width: int(math.Max(1, math.Round(windowOps)))}
	for i := 0; i < spec.conns; i++ {
		p.conns = append(p.conns, &replayConn{gen: newOpGen(spec.mix, seed, i),
			model: newWriterModel(uint32(101 + i)), busyIn: -1})
	}
	p.keys = make([][]byte, spec.mix.keys)
	for id := range p.keys {
		p.keys[id] = []byte(keyName(id))
	}
	return p
}

// fill takes the next window's requests round-robin from the
// connections' outstanding bursts.
func (p *replayer) fill() {
	p.window = p.window[:0]
	for len(p.window) < p.width {
		added := false
		for k := 0; k < len(p.conns) && len(p.window) < p.width; k++ {
			c := p.conns[(p.rr+k)%len(p.conns)]
			if c.pos == len(c.burst) {
				if c.busyIn == p.win {
					continue // its last burst has not executed yet
				}
				c.burst = c.gen.burst(c.burst, c.cas, p.spec.depth)
				c.cas = c.cas[:0]
				c.pos = 0
			}
			take := min(p.width-len(p.window), len(c.burst)-c.pos)
			for i := c.pos; i < c.pos+take; i++ {
				c.burst[i].rc = c
				p.window = append(p.window, &c.burst[i])
			}
			c.pos += take
			added = added || take > 0
			if c.pos == len(c.burst) {
				c.busyIn = p.win
			}
		}
		if !added {
			break
		}
	}
	p.rr++
}

// step executes one window: parse its request lines, then its reads,
// its writes and its cas ops, in the dispatcher's order.
func (p *replayer) step() error {
	p.fill()
	p.lines = p.lines[:0]
	for _, op := range p.window {
		p.lines = append(p.lines, requestLine(nil, op))
	}
	id := p.tr.begin("netfront.parse")
	for _, l := range p.lines {
		if err := netfront.ParseCommand(l, &p.cmd); err != nil {
			return fmt.Errorf("parse %q: %w", l, err)
		}
	}
	p.tr.end(id, len(p.lines))

	p.reads, p.writes = p.reads[:0], p.writes[:0]
	for _, op := range p.window {
		switch op.kind {
		case opGet, opGets:
			p.reads = append(p.reads, op)
		case opSet, opDel:
			p.writes = append(p.writes, op)
		}
	}
	if len(p.reads) > 0 {
		if err := p.readWindow(); err != nil {
			return err
		}
	}
	if len(p.writes) > 0 {
		if err := p.writeWindow(); err != nil {
			return err
		}
	}
	for _, op := range p.window {
		if op.kind == opCas {
			if err := p.cas(op); err != nil {
				return err
			}
		}
	}
	p.ops += uint64(len(p.window))
	p.win++
	return nil
}

// gather resolves keys against a pinned snapshot as the dispatcher
// does: build the key strings, gather the value slots, release the keys.
func (p *replayer) gather(mp *hds.Map, seg segment.Seg, keys [][]byte) ([]hds.String, []bool) {
	h := p.s.Heap
	id := p.tr.begin("hds.key_build")
	p.ks = hds.NewStringsInto(h, keys, p.ks)
	p.tr.end(id, len(keys))
	id = p.tr.begin("hds.gather")
	vals, found := mp.GetManyAtInto(seg, p.ks, p.vstrs[:0], p.found[:0])
	p.tr.end(id, len(keys))
	p.vstrs, p.found = vals, found
	for i := range p.ks {
		p.ks[i].Release(h)
	}
	return vals, found
}

func (p *replayer) snapshot(mp *hds.Map) (segment.Seg, uint64, error) {
	id := p.tr.begin("segmap.snapshot")
	seg, size, err := mp.SnapshotEntry()
	p.tr.end(id, 1)
	return seg, size, err
}

func (p *replayer) readWindow() error {
	h := p.s.Heap
	root := p.tr.begin("kvstore.read_window")
	p.rkeys = p.rkeys[:0]
	for _, op := range p.reads {
		for _, k := range op.keys {
			p.rkeys = append(p.rkeys, p.keys[k])
		}
	}
	mp := p.s.NamespaceFor(p.rkeys[0])
	seg, size, err := p.snapshot(mp)
	if err != nil {
		return err
	}
	vals, found := p.gather(mp, seg, p.rkeys)
	id := p.tr.begin("hds.materialize")
	p.vals, p.flat = hds.BytesManyInto(h, vals, p.flat, p.vals)
	p.tr.end(id, len(p.flat))
	for i, ok := range found {
		if ok {
			vals[i].Release(h)
		}
	}
	p.tr.end(root, len(p.rkeys))

	j := 0
	for _, op := range p.reads {
		for _, k := range op.keys {
			v, ok := p.vals[j], found[j]
			j++
			c := op.rc
			if !ok {
				p.res.check(!p.spec.mix.mustExist && c.model.readOK(k, version{}, false))
				continue
			}
			ver, good := p.codec.decode(k, v[4:])
			p.res.check(good && c.model.readOK(k, ver, true))
			if op.kind == opGets && good {
				segment.RetainSeg(h.M, seg)
				c.cas = append(c.cas, kvOp{kind: opCas, keys: []int{k}, pin: &casPin{seg: seg, size: size}})
			}
		}
	}
	segment.ReleaseSeg(h.M, seg)
	return nil
}

func (p *replayer) writeWindow() error {
	h := p.s.Heap
	root := p.tr.begin("kvstore.write_window")
	pairs := make([]hds.Pair, 0, len(p.writes))
	p.dkeys = p.dkeys[:0]
	for _, op := range p.writes {
		k := op.keys[0]
		op.ver = op.rc.model.next()
		if op.kind == opDel {
			pairs = append(pairs, hds.Pair{Key: p.keys[k], Delete: true})
			p.dkeys = append(p.dkeys, p.keys[k])
			continue
		}
		pairs = append(pairs, hds.Pair{Key: p.keys[k], Value: frame(p.codec.encode(k, op.ver))})
		p.userWritten += uint64(len(p.keys[k]) + valueLen)
	}
	mp := p.s.NamespaceFor(pairs[0].Key)
	if len(p.dkeys) > 0 {
		// The existence gather that answers DELETED or NOT_FOUND.
		seg, _, err := p.snapshot(mp)
		if err != nil {
			return err
		}
		vals, found := p.gather(mp, seg, p.dkeys)
		for i, ok := range found {
			if ok {
				vals[i].Release(h)
			}
		}
		segment.ReleaseSeg(h.M, seg)
	}
	id := p.tr.begin("hds.apply")
	err := mp.Apply(pairs, hds.ApplyOptions{Stats: &p.ws})
	p.tr.end(id, len(pairs))
	if err == nil {
		err = p.ack()
	}
	p.tr.end(root, len(pairs))
	p.sets += uint64(len(pairs))
	for _, op := range p.writes {
		p.res.check(err == nil)
		if err == nil {
			op.rc.model.acked(op.keys[0], op.ver.seq, op.kind == opDel)
		}
	}
	p.writeWins++
	if p.spec.durable && p.writeWins%p.spec.ckptEvery == 0 {
		return p.checkpoint()
	}
	return nil
}

func (p *replayer) ack() error {
	id := p.tr.begin("durable.ack")
	err := p.s.AckDurable()
	p.tr.end(id, 1)
	return err
}

func (p *replayer) checkpoint() error {
	id := p.tr.begin("durable.checkpoint")
	err := p.s.Checkpoint()
	p.tr.end(id, 1)
	return err
}

func (p *replayer) cas(op *kvOp) error {
	h := p.s.Heap
	root := p.tr.begin("kvstore.cas")
	defer p.tr.end(root, 1)
	k := op.keys[0]
	mp := p.s.NamespaceFor(p.keys[k])
	ks := hds.NewString(h, p.keys[k])
	exists := mp.Has(ks)
	ks.Release(h)
	if !exists {
		segment.ReleaseSeg(h.M, op.pin.seg)
		p.res.check(true) // NOT_FOUND
		return nil
	}
	op.ver = op.rc.model.next()
	pairs := [1]hds.Pair{{Key: p.keys[k], Value: frame(p.codec.encode(k, op.ver))}}
	id := p.tr.begin("merge.compare_apply")
	err := mp.CompareApply(op.pin.seg, op.pin.size, pairs[:], hds.ApplyOptions{Stats: &p.ws})
	p.tr.end(id, 1)
	segment.ReleaseSeg(h.M, op.pin.seg)
	p.casTried++
	p.sets++
	p.userWritten += uint64(len(p.keys[k]) + valueLen)
	if err == nil {
		err = p.ack()
	}
	switch {
	case err == nil:
		p.casOK++
		op.rc.model.acked(k, op.ver.seq, false)
		p.res.check(true)
	case errors.Is(err, merge.ErrConflict):
		p.res.check(true) // EXISTS
	default:
		p.res.check(false)
	}
	return nil
}

// run replays windows until the deadline or maxOps requests.
func (p *replayer) run(deadline time.Time, maxOps int) (uint64, time.Duration, error) {
	start, ops0 := time.Now(), p.ops
	for time.Now().Before(deadline) && (maxOps <= 0 || p.ops-ops0 < uint64(maxOps)) {
		if err := p.step(); err != nil {
			return 0, 0, err
		}
	}
	return p.ops - ops0, time.Since(start), nil
}

// releasePins drops the snapshots held by cas ops that never ran.
func (p *replayer) releasePins() {
	for _, c := range p.conns {
		for _, op := range c.cas {
			segment.ReleaseSeg(p.s.Heap.M, op.pin.seg)
		}
		for _, op := range c.burst[c.pos:] {
			if op.pin != nil {
				segment.ReleaseSeg(p.s.Heap.M, op.pin.seg)
			}
		}
		c.cas, c.burst, c.pos = nil, nil, 0
	}
}

// traceSlices is how many alternating untraced and traced slices a
// traced phase is cut into, so that drift over the phase (heap growth,
// log growth) weighs on both sides of the tracing-overhead comparison.
const traceSlices = 6

// sliced runs step-driven slices alternately without and with tracing
// and returns the operations and time of each side. run executes one
// slice under the given tracer until the deadline.
func sliced(total float64, off, on *tracer, run func(t *tracer, deadline time.Time) (uint64, time.Duration, error)) (opsOff, opsOn uint64, tOff, tOn time.Duration, err error) {
	for i := 0; i < traceSlices; i++ {
		t := off
		if i%2 == 1 {
			t = on
		}
		n, d, err := run(t, time.Now().Add(secs(total/traceSlices)))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if t.on {
			opsOn, tOn = opsOn+n, tOn+d
		} else {
			opsOff, tOff = opsOff+n, tOff+d
		}
	}
	if opsOff == 0 || opsOn == 0 {
		return 0, 0, 0, 0, errors.New("traced phase completed no operation")
	}
	return opsOff, opsOn, tOff, tOn, nil
}

// replayKV replays the workload in-process, alternating untraced and
// traced slices, and fills the per-layer metrics. Counts cover the
// whole replay (tracing does not change them); times come from the
// traced slices' spans. It returns the replay's writer models for the
// final-state check.
func replayKV(o opts, spec kvSpec, codec *valueCodec, s *kvstore.HicampServer, res *result, windowOps float64) ([]*writerModel, error) {
	m := s.Heap.M
	p := newReplayer(spec, codec, s, res, o.seed, windowOps)
	tr := newTracer(m, true)
	ms0, ds0, sm0, retries0 := m.Stats(), s.DurableStats(), s.MapStats().Total, hds.CASRetries()
	start := time.Now()
	opsA, opsB, tA, tB, err := sliced(0.6*o.seconds, newTracer(m, false), tr,
		func(t *tracer, deadline time.Time) (uint64, time.Duration, error) {
			p.tr = t
			return p.run(deadline, o.ops)
		})
	if err != nil {
		return nil, err
	}
	if spec.durable {
		p.tr = tr
		if err := p.checkpoint(); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	ms1, ds1, sm1, retries1 := m.Stats(), s.DurableStats(), s.MapStats().Total, hds.CASRetries()
	p.releasePins()

	v := res.values
	tot := totals(tr.spans)
	parse := tot["netfront.parse"]
	v["netfront.parse_ns_per_req"] = ratio(float64(parse.durNs), float64(parse.n))
	v["kvstore.read_us_per_window"] = tot["kvstore.read_window"].meanUs()
	v["kvstore.write_us_per_window"] = tot["kvstore.write_window"].meanUs()
	v["hds.key_build_us_per_key"] = tot["hds.key_build"].selfUsPer(1)
	v["hds.gather_us_per_key"] = tot["hds.gather"].selfUsPer(1)
	v["hds.materialize_us_per_kib"] = tot["hds.materialize"].selfUsPer(1024)
	v["hds.apply_us_per_set"] = tot["hds.apply"].selfUsPer(1)
	v["hds.cas_retries_per_set"] = ratio(float64(retries1-retries0), float64(p.sets))
	v["merge.compare_apply_us"] = tot["merge.compare_apply"].meanUs()
	v["merge.cas_stored_frac"] = ratio(float64(p.casOK), float64(p.casTried))
	v["segmap.cas_fail_per_commit"] = ratio(float64(sm1.Conflicts-sm0.Conflicts), float64(sm1.Commits-sm0.Commits))
	v["segment.paths_rebuilt_per_set"] = ratio(float64(p.ws.PathsRebuilt), float64(p.sets))
	v["segment.sibling_coalesced_frac"] = ratio(float64(p.ws.SiblingCoalesced), float64(p.ws.Updates))
	v["segment.line_reads_per_set"] = ratio(float64(p.ws.LineReads), float64(p.sets))
	v["segment.lookups_per_set"] = ratio(float64(p.ws.Lookups), float64(p.sets))
	machineLayers(res, ms0, ms1, float64(p.ops))
	v["store.live_lines"] = float64(m.LiveLines())
	if spec.durable {
		durableLayers(res, ds0, ds1, tot, elapsed, p.userWritten)
	} else {
		res.zeroLayers("durable.")
	}
	res.zeroLayers("chunker.", "kvstore.blob_")
	traceLayers(res, opsA, tA, opsB, tB, len(tr.spans))
	res.meta["trace_window_ops"] = fmt.Sprint(p.width)
	if err := writeTrace(traceFile(o), tr.spans, &res.report); err != nil {
		return nil, err
	}
	out := make([]*writerModel, 0, len(p.conns))
	for _, c := range p.conns {
		out = append(out, c.model)
	}
	return out, nil
}

// machineLayers sets the core, cachesim and store metrics from two
// machine snapshots around ops operations.
func machineLayers(res *result, a, b core.Stats, ops float64) {
	v := res.values
	d := func(x, y uint64) float64 { return float64(y - x) }
	v["core.lookup_ops_per_op"] = d(a.LookupOps, b.LookupOps) / ops
	v["core.read_ops_per_op"] = d(a.ReadOps, b.ReadOps) / ops
	hits, misses := d(a.Cache.Hits, b.Cache.Hits), d(a.Cache.Misses, b.Cache.Misses)
	v["cachesim.hit_rate"] = ratio(hits, hits+misses)
	v["cachesim.evictions_per_op"] = d(a.Cache.Evictions, b.Cache.Evictions) / ops
	sa, sb := a.Store, b.Store
	v["store.lookup_traffic_per_op"] = d(sa.LookupTraffic(), sb.LookupTraffic()) / ops
	v["store.rc_traffic_per_op"] = d(sa.RCTraffic(), sb.RCTraffic()) / ops
	v["store.data_reads_per_op"] = d(sa.DataReads, sb.DataReads) / ops
	v["store.data_writes_per_op"] = d(sa.DataWrites, sb.DataWrites) / ops
	v["store.dealloc_ops_per_op"] = d(sa.DeallocOps, sb.DeallocOps) / ops
	lookups := d(sa.Lookups, sb.Lookups)
	v["store.lookup_hit_rate"] = ratio(d(sa.LookupHits, sb.LookupHits), lookups)
	v["store.false_sig_per_lookup"] = ratio(d(sa.FalseSig, sb.FalseSig), lookups)
}

// durableLayers sets the durable tier's metrics from two stats
// snapshots taken dur apart.
func durableLayers(res *result, a, b durable.DurableStats, tot map[string]*spanTotal, dur time.Duration, userBytes uint64) {
	v := res.values
	fsyncs := float64(b.Fsyncs - a.Fsyncs)
	v["durable.ack_wait_us"] = tot["durable.ack"].meanUs()
	v["durable.records_per_fsync"] = ratio(float64(b.Appends-a.Appends), fsyncs)
	v["durable.fsyncs_per_s"] = fsyncs / dur.Seconds()
	v["durable.log_bytes_per_user_byte"] = ratio(float64(b.LogBytes-a.LogBytes), float64(userBytes))
	v["durable.checkpoint_ms"] = tot["durable.checkpoint"].meanUs() / 1e3
}

// traceLayers reports the traced phase's rate against the untraced
// replay's, and the span count.
func traceLayers(res *result, opsA uint64, tA time.Duration, opsB uint64, tB time.Duration, spans int) {
	un := float64(opsA) / tA.Seconds()
	tr := float64(opsB) / tB.Seconds()
	res.values["trace.untraced_ops_per_s"] = un
	res.values["trace.traced_ops_per_s"] = tr
	res.values["trace.overhead_frac"] = 1 - tr/un
	res.values["trace.spans"] = float64(spans)
}
