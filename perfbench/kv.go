package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/netfront"
	"repro/internal/pool"
)

// hicampdConfig is the machine cmd/hicampd builds by default: 16-B
// lines, a 256 KB LLC, 2^18 buckets of 12 data ways.
func hicampdConfig() core.Config {
	return core.Config{LineBytes: 16, BucketBits: 18, DataWays: 12,
		CacheLines: (256 << 10) / 16, CacheWays: 16}
}

// kvSpec sizes one kv workload.
type kvSpec struct {
	mix   mixSpec
	conns int // client connections, one goroutine each
	depth int // pipelined requests per burst
	// durable runs the store on a data directory; ckptEvery is the
	// number of acknowledged write bursts between checkpoints, and
	// tailSets the sets written after the final checkpoint, so every run
	// recovers a log tail of the same length.
	durable   bool
	ckptEvery int
	tailSets  int
}

var kvReadZipf = kvSpec{
	mix:   mixSpec{keys: 20000, zipf: 1.1, pSet: 0.05, mustExist: true},
	conns: 2, depth: 8,
}

var kvWriteDurable = kvSpec{
	mix:   mixSpec{keys: 5000, pSet: 0.45, pDel: 0.10, pGets: 0.10},
	conns: 2, depth: 8,
	durable: true, ckptEvery: 250, tailSets: 256,
}

func runKVReadZipf(o opts) (*result, error)     { return runKV(o, kvReadZipf) }
func runKVWriteDurable(o opts) (*result, error) { return runKV(o, kvWriteDurable) }

// frame prefixes v with netfront's 4-byte flags frame (flags 0), the
// form in which the front end stores values.
func frame(v []byte) []byte { return append(make([]byte, 4, 4+len(v)), v...) }

// kvStore is one opened store and the directory it lives in.
type kvStore struct {
	s   *kvstore.HicampServer
	dir string
}

// openStore creates (or, when dir holds data, recovers) a store.
func openStore(dir string) (*kvstore.HicampServer, error) {
	return kvstore.NewHicampServerOpts(hicampdConfig(), kvstore.ServerOptions{DataDir: dir})
}

// setupKV creates a store and preloads every key with its writer-0
// value; a durable store then checkpoints so the run starts from an
// empty log.
func setupKV(spec kvSpec, codec *valueCodec, dir string) (*kvstore.HicampServer, error) {
	s, err := openStore(dir)
	if err != nil {
		return nil, err
	}
	const batch = 512
	var b kvstore.Batch
	for id := 0; id < spec.mix.keys; id++ {
		b = b.Set([]byte(keyName(id)), frame(codec.encode(id, version{})))
		if len(b) == batch || id == spec.mix.keys-1 {
			if err := s.Write(b); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			b = b[:0]
		}
	}
	if err := s.Checkpoint(); err != nil {
		return nil, fmt.Errorf("preload checkpoint: %w", err)
	}
	return s, nil
}

// timedSetups runs set-up n times and keeps the last store; setup_s is
// the median duration. Earlier stores are closed and their directories
// removed.
func timedSetups(res *result, n int, dirFor func(i int) string, setup func(dir string) (*kvstore.HicampServer, error)) (kvStore, float64, error) {
	var keep kvStore
	drop := func() error {
		err := discard(keep)
		keep = kvStore{}
		return err
	}
	med, err := timedReps(res, "setup", n, 0, drop, func(i int) error {
		dir := dirFor(i)
		s, err := setup(dir)
		keep = kvStore{s: s, dir: dir}
		return err
	})
	return keep, med, err
}

// discard closes a store and removes its data directory.
func discard(st kvStore) error {
	if err := st.s.Close(); err != nil {
		return err
	}
	if st.dir != "" {
		return os.RemoveAll(st.dir)
	}
	return nil
}

// connStats is what one client connection measured.
type connStats struct {
	ops               uint64
	bytes             uint64 // user key+value bytes moved
	samples           []sample
	attempted, failed uint64
	writeBursts       uint64
}

func (c *connStats) check(ok bool) {
	c.attempted++
	if !ok {
		c.failed++
	}
}

// fatalIO reports whether err broke the connection (as opposed to one
// request answering an error line).
func fatalIO(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ne)
}

// netClient is one closed-loop connection: it sends a burst of depth
// requests, flushes, reads every reply, and only then sends the next.
type netClient struct {
	cl    *netfront.Client
	gen   *opGen
	model *writerModel
	codec *valueCodec
	spec  kvSpec
	st    connStats
	burst []kvOp
	cas   []kvOp
	enter []time.Time
}

// runBurst sends one burst and checks its replies.
func (c *netClient) runBurst() error {
	c.burst = c.gen.burst(c.burst, c.cas, c.spec.depth)
	c.cas = c.cas[:0]
	c.enter = c.enter[:0]
	for i := range c.burst {
		op := &c.burst[i]
		c.enter = append(c.enter, time.Now())
		key := keyName(op.keys[0])
		var err error
		switch op.kind {
		case opGet, opGets:
			names := make([]string, len(op.keys))
			for j, k := range op.keys {
				names[j] = keyName(k)
			}
			err = c.cl.SendGet(op.kind == opGets, names...)
		case opSet:
			op.ver = c.model.next()
			err = c.cl.SendSet(key, 0, c.codec.encode(op.keys[0], op.ver), false)
		case opCas:
			op.ver = c.model.next()
			err = c.cl.SendCas(key, 0, c.codec.encode(op.keys[0], op.ver), op.tok)
		case opDel:
			op.ver = c.model.next()
			err = c.cl.SendDelete(key, false)
		}
		if err != nil {
			return err
		}
	}
	if err := c.cl.Flush(); err != nil {
		return err
	}
	wrote := false
	for i := range c.burst {
		op := &c.burst[i]
		if err := c.reply(op); err != nil {
			return err
		}
		now := time.Now()
		c.st.samples = append(c.st.samples, sample{lat: now.Sub(c.enter[i]).Nanoseconds(), write: op.kind.isWrite()})
		wrote = wrote || op.kind.isWrite()
		c.st.ops++
	}
	if wrote {
		c.st.writeBursts++
	}
	return nil
}

// reply reads and checks the answer to op.
func (c *netClient) reply(op *kvOp) error {
	key := keyName(op.keys[0])
	if op.kind == opGet || op.kind == opGets {
		vs, err := c.cl.ReadValues()
		if err != nil {
			if fatalIO(err) {
				return err
			}
			c.st.check(false) // SERVER_ERROR or a malformed reply
			return nil
		}
		// VALUE blocks come back for the hits, in request key order.
		j := 0
		for _, k := range op.keys {
			name := keyName(k)
			c.st.bytes += uint64(len(name))
			if j < len(vs) && vs[j].Key == name {
				v := vs[j]
				j++
				ver, ok := c.codec.decode(k, v.Data)
				c.st.check(ok && v.Flags == 0 && c.model.readOK(k, ver, true))
				c.st.bytes += uint64(len(v.Data))
				if op.kind == opGets && ok {
					c.cas = append(c.cas, kvOp{kind: opCas, keys: []int{k}, tok: v.Cas})
				}
				continue
			}
			c.st.check(!c.spec.mix.mustExist && c.model.readOK(k, version{}, false))
		}
		if j != len(vs) {
			c.st.check(false) // a value for a key that was not asked for
		}
		return nil
	}
	rep, err := c.cl.ReadReply()
	if err != nil {
		return err
	}
	c.st.bytes += uint64(len(key))
	switch op.kind {
	case opSet:
		c.st.bytes += valueLen
		ok := rep == "STORED"
		c.st.check(ok)
		if ok {
			c.model.acked(op.keys[0], op.ver.seq, false)
		}
	case opCas:
		c.st.bytes += valueLen
		c.st.check(rep == "STORED" || rep == "EXISTS" || rep == "NOT_FOUND")
		if rep == "STORED" {
			c.model.acked(op.keys[0], op.ver.seq, false)
		}
	case opDel:
		ok := rep == "DELETED" || rep == "NOT_FOUND"
		c.st.check(ok)
		if ok {
			c.model.acked(op.keys[0], op.ver.seq, true)
		}
	}
	return nil
}

// netRun is a running hicampd stack: the netfront server over a store
// on a loopback listener.
type netRun struct {
	srv  *netfront.Server
	addr string
	done chan error
}

func startServer(s *kvstore.HicampServer) (*netRun, error) {
	srv := netfront.NewServer(s, netfront.DefaultOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &netRun{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { r.done <- srv.Serve(ln) }()
	return r, nil
}

// stop closes the server and waits for its serve loop to end.
func (r *netRun) stop() error {
	if err := r.srv.Close(); err != nil {
		return err
	}
	if err := <-r.done; err != nil && err != netfront.ErrServerClosed {
		return err
	}
	return nil
}

// load is the closed-loop client side of a kv run.
type load struct {
	addr    string
	clients []*netClient
	// checkpoint, when set, runs every ckptEvery acknowledged write
	// bursts, counted over all phases.
	checkpoint  func() error
	ckptEvery   uint64
	writeBursts atomic.Uint64
}

// reset clears the clients' per-phase figures; answer-check tallies
// carry over.
func (l *load) reset() {
	for _, c := range l.clients {
		c.st.ops, c.st.bytes, c.st.samples = 0, 0, nil
	}
}

// redial gives every client a fresh connection.
func (l *load) redial() error {
	for _, c := range l.clients {
		if err := c.cl.Quit(); err != nil {
			return err
		}
		cl, err := netfront.Dial(l.addr)
		if err != nil {
			return err
		}
		c.cl = cl
	}
	return nil
}

// phase drives the server with the clients for dur (or until maxOps
// operations) and returns its wall time.
func (l *load) phase(dur time.Duration, maxOps int) (time.Duration, error) {
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	var ops atomic.Uint64
	errs := make([]error, len(l.clients))
	start := time.Now()
	for i, c := range l.clients {
		wg.Add(1)
		go func(i int, c *netClient) {
			defer wg.Done()
			for time.Now().Before(deadline) && (maxOps <= 0 || ops.Load() < uint64(maxOps)) {
				wb := c.st.writeBursts
				if err := c.runBurst(); err != nil {
					errs[i] = err
					return
				}
				ops.Add(uint64(len(c.burst)))
				if l.checkpoint != nil && c.st.writeBursts > wb && l.writeBursts.Add(1)%l.ckptEvery == 0 {
					if err := l.checkpoint(); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}(i, c)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// measure runs a measured phase of dur as rounds equal phases, each on
// fresh connections. Two closed-loop connections settle into a
// schedule against the server's flush windows that lasts as long as
// the connections do and moves the rate by several percent; fresh
// connections draw the schedule again, so a run averages over them.
func (l *load) measure(dur time.Duration, rounds, maxOps int) (time.Duration, error) {
	l.reset()
	var total time.Duration
	for k := 0; k < rounds; k++ {
		if err := l.redial(); err != nil {
			return 0, err
		}
		d, err := l.phase(dur/time.Duration(rounds), maxOps)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// dialClients opens one client per connection, each with its own
// writer id and seeded request stream.
func dialClients(addr string, spec kvSpec, codec *valueCodec, seed int64) ([]*netClient, error) {
	out := make([]*netClient, spec.conns)
	for i := range out {
		cl, err := netfront.Dial(addr)
		if err != nil {
			return nil, err
		}
		out[i] = &netClient{cl: cl, gen: newOpGen(spec.mix, seed, i),
			model: newWriterModel(uint32(i + 1)), codec: codec, spec: spec}
	}
	return out, nil
}

func closeClients(cs []*netClient) error {
	var errs []error
	for _, c := range cs {
		errs = append(errs, c.cl.Quit())
	}
	return errors.Join(errs...)
}

// readAll reads every key in-process and returns the unframed values
// (nil for absent keys).
func readAll(s *kvstore.HicampServer, keys int) [][]byte {
	b := make(kvstore.Batch, 0, keys)
	for id := 0; id < keys; id++ {
		b = b.Get([]byte(keyName(id)))
	}
	s.Read(b)
	out := make([][]byte, keys)
	for i, kv := range b {
		if kv.Found && len(kv.Value) >= 4 {
			out[i] = kv.Value[4:]
		} else if kv.Found {
			out[i] = []byte{}
		}
	}
	return out
}

// checkFinal verifies the final state against every writer's model and
// returns the live user bytes.
func checkFinal(r *result, codec *valueCodec, writers []*writerModel, vals [][]byte) uint64 {
	var live uint64
	for id, v := range vals {
		if v == nil {
			r.check(finalOK(writers, id, version{}, false))
			continue
		}
		ver, ok := codec.decode(id, v)
		r.check(ok && finalOK(writers, id, ver, true))
		live += uint64(len(keyName(id)) + len(v))
	}
	return live
}

// checkSame counts every key of got that differs from want.
func checkSame(r *result, want, got [][]byte) {
	for i := range want {
		r.check((want[i] == nil) == (got[i] == nil) && slices.Equal(want[i], got[i]))
	}
}

// recoverStore brings the final state back in a fresh store: a durable
// store reopens its data directory; a memory-only store has nothing to
// reopen, so its recovery is a reload of the final contents from the
// clients' side.
func recoverStore(spec kvSpec, dir string, final [][]byte) (*kvstore.HicampServer, error) {
	if spec.durable {
		return openStore(dir)
	}
	s := kvstore.NewHicampServer(hicampdConfig())
	var b kvstore.Batch
	for id, v := range final {
		if v != nil {
			b = b.Set([]byte(keyName(id)), frame(v))
		}
	}
	return s, s.Write(b)
}

// timedRecoveries recovers n times; the first recovered store is
// checked key by key against final. It returns the median duration
// and the last recovered store's durable stats source.
func timedRecoveries(r *result, n int, spec kvSpec, dir string, final [][]byte) (float64, *kvstore.HicampServer, error) {
	var last *kvstore.HicampServer
	drop := func() error {
		err := last.Close()
		last = nil
		return err
	}
	med, err := timedReps(r, "recovery", n, recoveryBudget(n), drop, func(int) error {
		s, err := recoverStore(spec, dir, final)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		last = s
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	checkSame(r, final, readAll(last, spec.mix.keys))
	return med, last, last.Close()
}

// tail writes spec.tailSets sets through one connection after the
// final checkpoint.
func tail(c *netClient, n int) error {
	for i := 0; i < n; i += c.spec.depth {
		c.burst = c.burst[:0]
		for j := 0; j < c.spec.depth && i+j < n; j++ {
			c.burst = append(c.burst, kvOp{kind: opSet, keys: []int{c.gen.key()}})
		}
		for k := range c.burst {
			op := &c.burst[k]
			op.ver = c.model.next()
			if err := c.cl.SendSet(keyName(op.keys[0]), 0, c.codec.encode(op.keys[0], op.ver), false); err != nil {
				return err
			}
		}
		if err := c.cl.Flush(); err != nil {
			return err
		}
		for k := range c.burst {
			if err := c.reply(&c.burst[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// runKV runs one kv workload, untraced or traced.
func runKV(o opts, spec kvSpec) (*result, error) {
	res := newResult()
	codec := newValueCodec(o.seed)
	dirFor := func(i int) string {
		if !spec.durable {
			return ""
		}
		return filepath.Join(o.dataRoot, fmt.Sprintf("data-%d", i))
	}
	setups := o.setups
	if o.trace {
		setups = 1
	}
	st, setupS, err := timedSetups(res, setups, dirFor, func(dir string) (*kvstore.HicampServer, error) {
		return setupKV(spec, codec, dir)
	})
	if err != nil {
		return nil, err
	}
	kvMeta(res, o, spec, st.dir)
	lap := stopwatch(res)

	r, err := startServer(st.s)
	if err != nil {
		return nil, err
	}
	clients, err := dialClients(r.addr, spec, codec, o.seed)
	if err != nil {
		return nil, err
	}
	l := &load{addr: r.addr, clients: clients, ckptEvery: uint64(spec.ckptEvery)}
	if spec.durable {
		l.checkpoint = st.s.Checkpoint
	}
	loadSecs := o.seconds
	if o.trace {
		loadSecs = 0.4 * o.seconds // the rest is the in-process replay
	}
	// An untimed warm-up fills the LLC and the server's pools.
	if _, err := l.phase(warmup, o.ops); err != nil {
		return nil, err
	}
	settle()
	m := st.s.Heap.M
	c0, ds0, p0, pool0 := r.srv.Counters(), m.Stats(), readProc(), poolTotals()
	elapsed, err := l.measure(secs(loadSecs), rounds, o.ops)
	if err != nil {
		return nil, err
	}
	c1, ds1, p1, pool1 := r.srv.Counters(), m.Stats(), readProc(), poolTotals()
	lap("load")

	var all connStats
	for _, c := range clients {
		all.ops += c.st.ops
		all.bytes += c.st.bytes
		all.samples = append(all.samples, c.st.samples...)
		res.attempted += c.st.attempted
		res.failed += c.st.failed
	}
	if all.ops == 0 {
		return nil, errors.New("no operation completed")
	}
	res.meta["ops"] = fmt.Sprint(all.ops)
	res.meta["windows"] = fmt.Sprint(c1.Batches - c0.Batches)
	windowOps := ratio(float64(c1.BatchedOps-c0.BatchedOps), float64(c1.Batches-c0.Batches))

	if !o.trace {
		summarize(res, all.samples, elapsed)
		res.values["dram_per_kib"] = float64(ds1.DRAMAccesses()-ds0.DRAMAccesses()) / (float64(all.bytes) / 1024)
		res.values["heap_live_mb"] = heapLiveMB()
		res.values["setup_s"] = setupS
		res.meta["window_ops"] = fmt.Sprintf("%.2f", windowOps)
	} else {
		res.values["netfront.window_ops"] = windowOps
		res.values["netfront.windows_per_s"] = float64(c1.Batches-c0.Batches) / elapsed.Seconds()
		res.values["pool.miss_rate"] = ratio(float64(pool1.Misses-pool0.Misses), float64(pool1.Hits+pool1.Misses-pool0.Hits-pool0.Misses))
		res.setProc(p0, p1, float64(all.ops))
	}

	writers := make([]*writerModel, 0, len(clients))
	for _, c := range clients {
		writers = append(writers, c.model)
	}
	if err := closeClients(clients); err != nil {
		return nil, err
	}
	if err := r.stop(); err != nil {
		return nil, err
	}

	lap("stop")
	if o.trace {
		rw, err := replayKV(o, spec, codec, st.s, res, windowOps)
		if err != nil {
			return nil, err
		}
		writers = append(writers, rw...)
	}

	// Epilogue: a final checkpoint and a fixed tail of sets, so every
	// durable run recovers the same amount of log.
	if spec.durable {
		if err := epilogueTail(o, spec, codec, st.s, res, &writers); err != nil {
			return nil, err
		}
	}
	lap("replay+tail")
	final := readAll(st.s, spec.mix.keys)
	live := checkFinal(res, codec, writers, final)
	lap("final_check")
	if !o.trace {
		res.values["bytes_per_user_byte"] = float64(m.FootprintBytes()) / float64(live)
	}
	if err := st.s.Close(); err != nil {
		return nil, err
	}
	st.s = nil

	recS, rec, err := timedRecoveries(res, recoveries(o), spec, st.dir, final)
	if err != nil {
		return nil, err
	}
	lap("recovery")
	if o.trace {
		res.values["durable.replayed_records"] = float64(rec.DurableStats().ReplayedRecords)
	} else {
		res.values["recovery_s"] = recS
	}
	return res, nil
}

// epilogueTail checkpoints and then writes the fixed tail of sets
// through a fresh connection of its own (writer id 99).
func epilogueTail(o opts, spec kvSpec, codec *valueCodec, s *kvstore.HicampServer, res *result, writers *[]*writerModel) error {
	t := time.Now()
	if err := s.Checkpoint(); err != nil {
		return err
	}
	if o.trace {
		res.meta["final_checkpoint_ms"] = fmt.Sprintf("%.2f", float64(time.Since(t).Microseconds())/1e3)
	}
	r, err := startServer(s)
	if err != nil {
		return err
	}
	cl, err := netfront.Dial(r.addr)
	if err != nil {
		return err
	}
	c := &netClient{cl: cl, gen: newOpGen(spec.mix, o.seed, 99), model: newWriterModel(99), codec: codec, spec: spec}
	if err := tail(c, spec.tailSets); err != nil {
		return err
	}
	res.attempted += c.st.attempted
	res.failed += c.st.failed
	*writers = append(*writers, c.model)
	if err := cl.Quit(); err != nil {
		return err
	}
	return r.stop()
}

// stopwatch returns a function that records, in the printed metadata,
// the wall time since its previous call under the given phase name.
func stopwatch(res *result) func(phase string) {
	t := time.Now()
	return func(phase string) {
		res.meta["phase_"+phase+"_s"] = fmt.Sprintf("%.2f", time.Since(t).Seconds())
		t = time.Now()
	}
}

// recoveries is how many times a run recovers at least; recovery_s is
// the median. Untraced runs repeat a short recovery until recoveryTime
// has passed, since a reopen's duration varies with the collector's
// timing.
func recoveries(o opts) int {
	if o.trace {
		return 1
	}
	return o.setups + 2
}

func recoveryBudget(n int) time.Duration {
	if n == 1 {
		return 0
	}
	return recoveryTime
}

// recoveryTime is the least time untraced runs spend recovering.
const recoveryTime = 3 * time.Second

// warmup is the untimed load before a measured phase; rounds is the
// number of fresh-connection phases a measured phase is run as.
const (
	warmup = time.Second
	rounds = 5
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// poolTotals sums the scratch pools' counters.
func poolTotals() pool.Stats {
	var t pool.Stats
	for _, ps := range pool.Snapshot() {
		t.Hits += ps.Hits
		t.Misses += ps.Misses
		t.Oversize += ps.Oversize
		t.Returned += ps.Returned
	}
	return t
}

// kvMeta records the run's set-up in the printed metadata.
func kvMeta(res *result, o opts, spec kvSpec, dir string) {
	commonMeta(res, o)
	nf := netfront.DefaultOptions()
	res.meta["flush_policy"] = fmt.Sprintf("netfront MaxBatch=%d FlushWindow=%s", nf.MaxBatch, nf.FlushWindow)
	res.meta["load"] = fmt.Sprintf("closed loop, %d connections x bursts of %d pipelined requests", spec.conns, spec.depth)
	lines := spec.mix.keys * (valueLen + 4 + 8) / hicampdConfig().LineBytes
	res.meta["size_vs_llc"] = fmt.Sprintf("%d keys x %d B ~ %d value lines vs %d LLC lines",
		spec.mix.keys, valueLen, lines, hicampdConfig().CacheLines)
	if spec.durable {
		res.meta["durable"] = fmt.Sprintf("flush window 2ms (default), checkpoint every %d acked write bursts, %d tail sets",
			spec.ckptEvery, spec.tailSets)
		res.meta["data_fs"] = fsType(dir)
	} else {
		res.meta["durable"] = "off (memory-only)"
	}
}
