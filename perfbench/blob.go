package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/chunker"
	"repro/internal/datagen"
	"repro/internal/kvstore"
	"repro/internal/pool"
)

// blobSpec sizes the blob_dedup workload: near-duplicate unpadded HTML
// documents (power-law sizes around meanSize). Each variant has its own
// slot key, which holds an edited copy of it.
type blobSpec struct {
	bases, variantsPer, editsPer, meanSize int
}

// corpusSeed fixes the document set (see runBlobDedup).
const corpusSeed = 1

var blobDedup = blobSpec{bases: 24, variantsPer: 3, editsPer: 4, meanSize: 16 << 10}

func baseKey(i int) []byte { return []byte(fmt.Sprintf("base:%03d", i)) }
func slotKey(i int) []byte { return []byte(fmt.Sprintf("doc:%03d", i)) }

// blobRun is one blob store and the contents every key must hold.
type blobRun struct {
	corpus *datagen.ShiftedCorpus
	s      *kvstore.HicampServer
	model  map[string][]byte
	rng    *rand.Rand
	res    *result

	order      []int // this pass's variant order
	ops, bytes uint64
	samples    []sample
}

// setupBlob creates the store, ingests the base documents, and writes
// every variant once to its slot key (the warm pass: the measured phase
// starts with a warm chunk memo and a heap already grown).
func setupBlob(corpus *datagen.ShiftedCorpus) (*kvstore.HicampServer, map[string][]byte, error) {
	s := kvstore.NewHicampServer(hicampdConfig())
	model := map[string][]byte{}
	var b kvstore.Batch
	for i, doc := range corpus.Bases {
		b = b.Set(baseKey(i), doc)
		model[string(baseKey(i))] = doc
	}
	if err := s.BlobWrite(b); err != nil {
		return nil, nil, err
	}
	for j, doc := range corpus.Variants {
		k := slotKey(j)
		if err := s.BlobWrite(kvstore.Batch{}.Set(k, doc)); err != nil {
			return nil, nil, err
		}
		model[string(k)] = doc
	}
	return s, model, nil
}

// next picks the next variant and returns a fresh near-duplicate of it
// (one more byte-local insertion) and its slot key. Every pass writes
// each variant once, in a seeded order, so the mix of document sizes is
// the same in every run.
func (r *blobRun) next() ([]byte, []byte) {
	if len(r.order) == 0 {
		r.order = r.rng.Perm(len(r.corpus.Variants))
	}
	j := r.order[0]
	r.order = r.order[1:]
	v := r.corpus.Variants[j]
	ins := fmt.Sprintf("<ins rev=%d/>", r.rng.Intn(1<<20))
	doc := datagen.ApplyEdits(v, []datagen.Edit{{Op: datagen.EditInsert, Off: r.rng.Intn(len(v)), Data: []byte(ins)}})
	return doc, slotKey(j)
}

// step writes one edited document to its slot and reads it back,
// checking it byte for byte. With a tracer on, it also times the
// chunker's split of the document.
func (r *blobRun) step(tr *tracer) {
	doc, key := r.next()
	if tr.on {
		id := tr.begin("chunker.split")
		chunker.Config{}.Split(doc, func([]byte) bool { return true })
		tr.end(id, len(doc))
	}

	id := tr.begin("kvstore.blob_write")
	t := time.Now()
	err := r.s.BlobWrite(kvstore.Batch{}.Set(key, doc))
	r.sample(t, true)
	tr.end(id, len(doc))
	r.res.check(err == nil)
	if err == nil {
		r.model[string(key)] = doc
	}

	b := kvstore.Batch{}.Get(key)
	id = tr.begin("kvstore.blob_read")
	t = time.Now()
	r.s.BlobRead(b)
	r.sample(t, false)
	tr.end(id, len(b[0].Value))
	r.res.check(b[0].Found && bytes.Equal(b[0].Value, r.model[string(key)]))

	r.ops += 2
	r.bytes += uint64(2 * (len(key) + len(doc)))
}

func (r *blobRun) sample(start time.Time, write bool) {
	now := time.Now()
	r.samples = append(r.samples, sample{lat: now.Sub(start).Nanoseconds(), write: write})
}

// phase runs steps until the deadline or maxOps operations.
func (r *blobRun) phase(tr *tracer, deadline time.Time, maxOps int) (uint64, time.Duration) {
	start, ops0 := time.Now(), r.ops
	for time.Now().Before(deadline) && (maxOps <= 0 || r.ops-ops0 < uint64(maxOps)) {
		r.step(tr)
	}
	return r.ops - ops0, time.Since(start)
}

// checkAll reads every key back and returns the live user bytes.
func checkAll(res *result, s *kvstore.HicampServer, model map[string][]byte) uint64 {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b kvstore.Batch
	for _, k := range keys {
		b = b.Get([]byte(k))
	}
	s.BlobRead(b)
	var live uint64
	for i, k := range keys {
		res.check(b[i].Found && bytes.Equal(b[i].Value, model[k]))
		live += uint64(len(k) + len(model[k]))
	}
	return live
}

// reloadBlobs is a memory-only store's recovery: a fresh store ingests
// the final contents again.
func reloadBlobs(model map[string][]byte) (*kvstore.HicampServer, error) {
	s := kvstore.NewHicampServer(hicampdConfig())
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b kvstore.Batch
	for _, k := range keys {
		b = b.Set([]byte(k), model[k])
	}
	return s, s.BlobWrite(b)
}

func runBlobDedup(o opts) (*result, error) {
	spec := blobDedup
	res := newResult()
	commonMeta(res, o)
	// The document set is the same for every seed: its power-law sizes
	// would otherwise move documents per second by tens of percent from
	// seed to seed. The seed drives the order of each pass over the
	// variants and the edits.
	corpus := datagen.NearDuplicateCorpus("perfbench", spec.bases, spec.variantsPer, spec.editsPer, spec.meanSize, corpusSeed)
	res.meta["size_vs_llc"] = fmt.Sprintf("%d bases + %d variants, %d KiB of documents ~ %d lines vs %d LLC lines",
		len(corpus.Bases), len(corpus.Variants), corpus.TotalBytes()>>10,
		corpus.TotalBytes()/uint64(hicampdConfig().LineBytes), hicampdConfig().CacheLines)
	res.meta["load"] = "one in-process caller: BlobWrite of an edited variant to its slot, then BlobRead of it"
	res.meta["durable"] = "off (memory-only)"

	setups := o.setups
	if o.trace {
		setups = 1
	}
	r := &blobRun{corpus: corpus, res: res, rng: rand.New(rand.NewSource(o.seed))}
	drop := func() error {
		r.s, r.model = nil, nil
		return nil
	}
	setupS, err := timedReps(res, "setup", setups, 0, drop, func(int) error {
		s, model, err := setupBlob(corpus)
		r.s, r.model = s, model
		return err
	})
	if err != nil {
		return nil, err
	}
	m := r.s.Heap.M
	settle()

	if !o.trace {
		ms0 := m.Stats()
		_, elapsed := r.phase(newTracer(m, false), time.Now().Add(secs(o.seconds)), o.ops)
		ms1 := m.Stats()
		if r.ops == 0 {
			return nil, errors.New("no operation completed")
		}
		summarize(res, r.samples, elapsed)
		v := res.values
		v["dram_per_kib"] = float64(ms1.DRAMAccesses()-ms0.DRAMAccesses()) / (float64(r.bytes) / 1024)
		v["heap_live_mb"] = heapLiveMB()
		v["setup_s"] = setupS
		live := checkAll(res, r.s, r.model)
		v["bytes_per_user_byte"] = float64(m.FootprintBytes()) / float64(live)
		res.meta["ops"] = fmt.Sprint(r.ops)
		res.meta["memo_hit_rate"] = fmt.Sprintf("%.6f", r.s.BlobIngestStats().HitRate())
	} else {
		if err := traceBlob(o, r, res); err != nil {
			return nil, err
		}
		checkAll(res, r.s, r.model)
	}

	// Recovery of a memory-only store: reload the final contents.
	model := r.model
	r.s = nil
	var s *kvstore.HicampServer
	drop = func() error {
		s = nil
		return nil
	}
	recS, err := timedReps(res, "recovery", recoveries(o), recoveryBudget(recoveries(o)), drop, func(int) error {
		var err error
		s, err = reloadBlobs(model)
		return err
	})
	if err != nil {
		return nil, err
	}
	checkAll(res, s, model)
	if !o.trace {
		res.values["recovery_s"] = recS
	}
	return res, nil
}

// traceBlob alternates untraced and traced slices and fills the
// per-layer metrics: counts over the whole phase, times from the traced
// slices' spans, allocation and pool figures from the untraced slices.
func traceBlob(o opts, r *blobRun, res *result) error {
	s, m := r.s, r.s.Heap.M
	tr := newTracer(m, true)
	ms0, is0, ops0 := m.Stats(), s.BlobIngestStats(), r.ops
	// Allocation and pool figures of the untraced slices only.
	var procOff procCounters
	var poolOff pool.Stats
	opsA, opsB, tA, tB, err := sliced(o.seconds, newTracer(m, false), tr,
		func(t *tracer, deadline time.Time) (uint64, time.Duration, error) {
			p0, q0 := readProc(), poolTotals()
			n, d := r.phase(t, deadline, o.ops)
			if !t.on {
				p1, q1 := readProc(), poolTotals()
				procOff = addProc(procOff, subProc(p1, p0))
				poolOff.Hits += q1.Hits - q0.Hits
				poolOff.Misses += q1.Misses - q0.Misses
			}
			return n, d, nil
		})
	if err != nil {
		return err
	}
	ms1, is1 := m.Stats(), s.BlobIngestStats()
	res.setProc(procCounters{}, procOff, float64(opsA))
	res.values["pool.miss_rate"] = ratio(float64(poolOff.Misses), float64(poolOff.Hits+poolOff.Misses))

	v := res.values
	tot := totals(tr.spans)
	chunks := float64(is1.Chunks - is0.Chunks)
	v["chunker.memo_hit_rate"] = ratio(float64(is1.MemoHits-is0.MemoHits), chunks)
	v["chunker.memo_stale_frac"] = ratio(float64(is1.MemoStale-is0.MemoStale), chunks)
	v["chunker.bytes_built_frac"] = ratio(float64(is1.BytesBuilt-is0.BytesBuilt), float64(is1.BytesIn-is0.BytesIn))
	v["chunker.split_us_per_kib"] = tot["chunker.split"].selfUsPer(1024)
	v["kvstore.blob_write_us_per_kib"] = tot["kvstore.blob_write"].selfUsPer(1024)
	v["kvstore.blob_read_us_per_kib"] = tot["kvstore.blob_read"].selfUsPer(1024)
	machineLayers(res, ms0, ms1, float64(r.ops-ops0))
	v["store.live_lines"] = float64(m.LiveLines())
	res.zeroLayers("netfront.", "kvstore.read_", "kvstore.write_", "hds.", "merge.", "segmap.", "segment.", "durable.")
	traceLayers(res, opsA, tA, opsB, tB, len(tr.spans))
	return writeTrace(traceFile(o), tr.spans, &res.report)
}
