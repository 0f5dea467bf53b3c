package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// runShort executes one short run and returns its parsed JSON result
// line.
func runShort(t *testing.T, o opts) (jsonResult, *result) {
	t.Helper()
	res, err := execute(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	var buf bytes.Buffer
	if err := res.print(&buf, o.trace); err != nil {
		t.Fatalf("%s trace=%v: print: %v", o.workload, o.trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var out jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	return out, res
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that every named metric is reported with its unit and that no
// answer was wrong.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := opts{workload: w, seed: 3, seconds: 1, trace: traced, setups: 1, dataRoot: t.TempDir()}
			out, _ := runShort(t, o)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w, traced, d.name, m, ok, d.unit)
				}
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d (failed_frac must be 0)",
					w, traced, out.Correct, out.Failed, out.Attempted)
			}
			if !traced {
				for _, d := range endToEnd {
					if out.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, out.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestTraceSpansNest checks a traced run's written spans: every self
// time is non-negative and every child lies inside its parent.
func TestTraceSpansNest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced workload")
	}
	root := t.TempDir()
	o := opts{workload: "kv_write_durable", seed: 5, seconds: 1, trace: true, setups: 1, dataRoot: root}
	runShort(t, o)
	f, err := os.Open(filepath.Join(root, "trace-kv_write_durable-seed5.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans written")
	}
	children := 0
	for i, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %d %s ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		children++
		p := spans[s.Parent]
		if int(s.Parent) >= i || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d,%d] not inside parent %d %s [%d,%d]",
				i, s.Name, s.Start, s.End, s.Parent, p.Name, p.Start, p.End)
		}
	}
	if children == 0 {
		t.Error("no nested spans")
	}
	for i, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d %s has negative self time %d", i, spans[i].Name, self)
		}
	}
}

// TestBlobCountsRepeat checks that blob_dedup's simulated counts depend
// only on the seed: with a fixed number of operations, two runs give
// exactly the same dram_per_kib, bytes_per_user_byte and memo hit rate.
func TestBlobCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs blob_dedup four times")
	}
	var e2e [2]jsonResult
	var layer [2]jsonResult
	for i := range e2e {
		o := opts{workload: "blob_dedup", seed: 9, seconds: 60, ops: 120, setups: 1, dataRoot: t.TempDir()}
		e2e[i], _ = runShort(t, o)
		o.trace, o.ops = true, 20
		layer[i], _ = runShort(t, o)
	}
	for _, name := range []string{"dram_per_kib", "bytes_per_user_byte"} {
		if a, b := e2e[0].Metrics[name].Value, e2e[1].Metrics[name].Value; a != b {
			t.Errorf("%s differs between runs: %v vs %v", name, a, b)
		}
	}
	if a, b := layer[0].Metrics["chunker.memo_hit_rate"].Value, layer[1].Metrics["chunker.memo_hit_rate"].Value; a != b || a == 0 {
		t.Errorf("chunker.memo_hit_rate differs between runs or is zero: %v vs %v", a, b)
	}
}

// TestBenchmarkJSONAgrees checks that BENCHMARK.json at the repository
// root names the same metrics, with the same units, as this program.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames()) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames()))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
