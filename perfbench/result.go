package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units
// (TestBenchmarkJSONAgrees keeps the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"get_p50_us", "us"},
	{"get_p99_us", "us"},
	{"set_p50_us", "us"},
	{"set_p99_us", "us"},
	{"dram_per_kib", "1/KiB"},
	{"bytes_per_user_byte", "ratio"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
	{"recovery_s", "s"},
}

// perLayer are the traced run's metrics, named <module>.<metric>. A
// layer a workload bypasses reports zero.
var perLayer = []metricDef{
	{"netfront.window_ops", "ops"},
	{"netfront.windows_per_s", "1/s"},
	{"netfront.parse_ns_per_req", "ns"},
	{"kvstore.read_us_per_window", "us"},
	{"kvstore.write_us_per_window", "us"},
	{"hds.key_build_us_per_key", "us"},
	{"hds.gather_us_per_key", "us"},
	{"hds.materialize_us_per_kib", "us/KiB"},
	{"hds.apply_us_per_set", "us"},
	{"hds.cas_retries_per_set", "count"},
	{"merge.compare_apply_us", "us"},
	{"merge.cas_stored_frac", "frac"},
	{"segmap.cas_fail_per_commit", "count"},
	{"segment.paths_rebuilt_per_set", "count"},
	{"segment.sibling_coalesced_frac", "frac"},
	{"segment.line_reads_per_set", "count"},
	{"segment.lookups_per_set", "count"},
	{"core.lookup_ops_per_op", "count"},
	{"core.read_ops_per_op", "count"},
	{"cachesim.hit_rate", "frac"},
	{"cachesim.evictions_per_op", "count"},
	{"store.lookup_traffic_per_op", "count"},
	{"store.rc_traffic_per_op", "count"},
	{"store.data_reads_per_op", "count"},
	{"store.data_writes_per_op", "count"},
	{"store.dealloc_ops_per_op", "count"},
	{"store.lookup_hit_rate", "frac"},
	{"store.false_sig_per_lookup", "count"},
	{"store.live_lines", "lines"},
	{"durable.ack_wait_us", "us"},
	{"durable.records_per_fsync", "count"},
	{"durable.fsyncs_per_s", "1/s"},
	{"durable.log_bytes_per_user_byte", "ratio"},
	{"durable.checkpoint_ms", "ms"},
	{"durable.replayed_records", "count"},
	{"chunker.memo_hit_rate", "frac"},
	{"chunker.memo_stale_frac", "frac"},
	{"chunker.bytes_built_frac", "frac"},
	{"chunker.split_us_per_kib", "us/KiB"},
	{"kvstore.blob_write_us_per_kib", "us/KiB"},
	{"kvstore.blob_read_us_per_kib", "us/KiB"},
	{"pool.miss_rate", "frac"},
	{"proc.allocs_per_op", "count"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.gc_cpu_frac", "frac"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_frac", "frac"},
	{"trace.spans", "count"},
}

// result is one run's outcome: answer-check tallies, measured values,
// and printed-only run metadata.
type result struct {
	attempted, failed uint64
	values            map[string]float64
	// samples holds the sample count behind each latency percentile.
	samples map[string]int
	meta    map[string]string
	// report holds printed-only lines (the traced run's span summary).
	report bytes.Buffer
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}, meta: map[string]string{}}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// check tallies one answer check.
func (r *result) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the JSON result line. A
// traced run reports the per-layer metrics, an untraced one the
// end-to-end metrics; every listed metric must be present.
func (r *result) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	keys := make([]string, 0, len(r.meta))
	for k := range r.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "meta %-28s %s\n", k, r.meta[k])
	}
	if _, err := r.report.WriteTo(w); err != nil {
		return err
	}
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(defs))}
	fmt.Fprintf(w, "%-34s %14d\n", "attempted", r.attempted)
	fmt.Fprintf(w, "%-34s %14d\n", "failed", r.failed)
	fmt.Fprintf(w, "%-34s %14.6f\n", "failed_frac", float64(r.failed)/math.Max(1, float64(r.attempted)))
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		line := fmt.Sprintf("%-34s %14.4f %s", d.name, v, d.unit)
		if n, ok := r.samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// sample is one completed request of a measured phase.
type sample struct {
	lat   int64 // latency, ns
	write bool  // timed as a set
}

// maxReps bounds the repetitions of a timed set-up or recovery.
const maxReps = 15

// summarize sets ops_per_s and the get and set latency percentiles
// from the samples of a measured phase of length dur.
func summarize(res *result, samples []sample, dur time.Duration) {
	var gets, sets []int64
	for _, s := range samples {
		if s.write {
			sets = append(sets, s.lat)
		} else {
			gets = append(gets, s.lat)
		}
	}
	res.values["ops_per_s"] = float64(len(samples)) / dur.Seconds()
	slices.Sort(gets)
	slices.Sort(sets)
	res.values["get_p50_us"] = percentile(gets, 0.50)
	res.values["get_p99_us"] = percentile(gets, 0.99)
	res.values["set_p50_us"] = percentile(sets, 0.50)
	res.values["set_p99_us"] = percentile(sets, 0.99)
	res.samples["get_p50_us"], res.samples["get_p99_us"] = len(gets), len(gets)
	res.samples["set_p50_us"], res.samples["set_p99_us"] = len(sets), len(sets)
}

// timedReps runs f at least n times, and more while the repetitions
// have taken less than budget in all (at most maxReps), and returns the
// median duration, recording every duration in the metadata under name.
// Before each repetition but the first, drop releases what the previous
// one built; settle then gives every repetition the same starting heap.
func timedReps(res *result, name string, n int, budget time.Duration, drop func() error, f func(i int) error) (float64, error) {
	var durs []float64
	var reps []string
	var total time.Duration
	for i := 0; i < n || (total < budget && i < maxReps); i++ {
		if i > 0 {
			if err := drop(); err != nil {
				return 0, err
			}
		}
		settle()
		t := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		d := time.Since(t)
		total += d
		durs = append(durs, d.Seconds())
		reps = append(reps, fmt.Sprintf("%.3f", durs[i]))
	}
	res.meta[name+"_reps_s"] = strings.Join(reps, " ")
	return median(durs), nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypassed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank p-quantile of sorted ns samples,
// in microseconds.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

// median of a float sample (the slice is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// settle collects garbage and returns free memory to the OS, so that
// the timed step after it starts from the same heap, and pays for the
// same page faults, whatever ran before it.
func settle() { debug.FreeOSMemory() }

// heapLiveMB forces a collection and returns the live heap it marked.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// procCounters is the process-wide allocation and GC CPU state, read
// from runtime/metrics.
type procCounters struct {
	allocs, allocBytes uint64
	gcCPU, totalCPU    float64
}

func readProc() procCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return procCounters{
		allocs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64(),
	}
}

func subProc(a, b procCounters) procCounters {
	return procCounters{allocs: a.allocs - b.allocs, allocBytes: a.allocBytes - b.allocBytes,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU}
}

func addProc(a, b procCounters) procCounters {
	return procCounters{allocs: a.allocs + b.allocs, allocBytes: a.allocBytes + b.allocBytes,
		gcCPU: a.gcCPU + b.gcCPU, totalCPU: a.totalCPU + b.totalCPU}
}

// setProc records the proc.* metrics for ops operations between a and b.
func (r *result) setProc(a, b procCounters, ops float64) {
	r.values["proc.allocs_per_op"] = ratio(float64(b.allocs-a.allocs), ops)
	r.values["proc.alloc_bytes_per_op"] = ratio(float64(b.allocBytes-a.allocBytes), ops)
	r.values["proc.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// zeroLayers sets every per-layer metric whose module prefix is listed
// to zero: the workload bypasses that layer.
func (r *result) zeroLayers(prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				r.values[d.name] = 0
			}
		}
	}
}
