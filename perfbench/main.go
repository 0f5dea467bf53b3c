// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload against the real stack and prints every metric
// by name and unit; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload kv_read_zipf --seed 1 --seconds 20 --trace 0
//
// Workloads (NOTES.md says why each exists):
//
//   - kv_read_zipf: memory-only hicampd stack (netfront over kvstore on
//     loopback TCP), Zipf reads with a few sets;
//   - kv_write_durable: the same stack with a data directory, a
//     write-heavy uniform mix with gets→cas pairs, periodic checkpoints,
//     and a close/reopen durability check;
//   - blob_dedup: in-process chunked blob ingest and read-back of
//     near-duplicate documents.
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it reports per-layer metrics instead: a short untraced phase observes
// the server's windowing, then the workload's op stream is replayed
// in-process with a span around each call into a layer.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// opts is one run's command line.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// ops, when positive, ends the measured phase after this many
	// operations instead of after seconds (tests use it for exact
	// repeatability).
	ops int
	// setups is how many times set-up runs (setup_s is their median);
	// recovery runs at least two times more (recovery_s is their median).
	// Traced runs set up and recover once.
	setups int
	// dataRoot holds durable data directories and trace output.
	dataRoot string
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&o.dataRoot, "data-root", ".bench_build", "directory for data dirs and trace files")
	flag.Parse()
	o.trace = trace == 1
	o.setups = 3

	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d); workloads: %v\n",
			o.workload, trace, workloadNames())
		os.Exit(2)
	}
	start := time.Now()
	res, err := execute(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	res.meta["wall_s"] = fmt.Sprintf("%.2f", time.Since(start).Seconds())
	if err := res.print(os.Stdout, o.trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// execute runs one workload in a fresh scratch directory under
// o.dataRoot and removes the directory afterwards.
func execute(o opts) (*result, error) {
	run, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.dataRoot, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.dataRoot, "run-")
	if err != nil {
		return nil, err
	}
	o.dataRoot = scratch
	res, err := run(o)
	// Data directories are scratch: the run's answers are already checked.
	if rerr := os.RemoveAll(scratch); rerr != nil && err == nil {
		err = rerr
	}
	return res, err
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(opts) (*result, error){
	"kv_read_zipf":     runKVReadZipf,
	"kv_write_durable": runKVWriteDurable,
	"blob_dedup":       runBlobDedup,
}

func workloadNames() []string {
	return []string{"kv_read_zipf", "kv_write_durable", "blob_dedup"}
}

// traceFile names where a traced run writes its spans.
func traceFile(o opts) string {
	return filepath.Join(filepath.Dir(o.dataRoot), fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
}
