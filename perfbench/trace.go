package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the trace
// began; dram is the simulated DRAM accesses the call caused (exact,
// since a traced run is single-threaded); n is the call's work in the
// unit its metric divides by (keys, bytes, requests).
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
	DRAM   uint64 `json:"dram"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing, so the same replay code measures tracing overhead.
type tracer struct {
	on    bool
	m     *core.Machine
	t0    time.Time
	spans []span
	stack []int32
}

func newTracer(m *core.Machine, on bool) *tracer {
	return &tracer{on: on, m: m, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if k := len(t.stack); k > 0 {
		parent = t.stack[k-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent,
		DRAM: t.m.Stats().DRAMAccesses(), Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span, and
// records its work n.
func (t *tracer) end(id int32, n int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	s.DRAM = t.m.Stats().DRAMAccesses() - s.DRAM
	s.N = int64(n)
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's duration minus the part of it that its
// children cover (children of one parent never overlap: the traced run
// is single-threaded).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanTotals aggregates spans by name.
type spanTotal struct {
	count      int
	durNs      int64
	selfNs     int64
	n          int64
	dram       uint64
	firstIndex int
}

func totals(spans []span) map[string]*spanTotal {
	self := selfTimes(spans)
	out := map[string]*spanTotal{}
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{firstIndex: i}
			out[s.Name] = t
		}
		t.count++
		t.durNs += s.End - s.Start
		t.selfNs += self[i]
		t.n += s.N
		t.dram += s.DRAM
	}
	return out
}

// meanUs is the mean duration of a span name in microseconds.
func (t *spanTotal) meanUs() float64 {
	if t == nil || t.count == 0 {
		return 0
	}
	return float64(t.durNs) / float64(t.count) / 1e3
}

// selfUsPer is the span name's self time per unit of work, in
// microseconds; per is the divisor applied to n (1024 for per-KiB).
func (t *spanTotal) selfUsPer(per float64) float64 {
	if t == nil || t.n == 0 {
		return 0
	}
	return float64(t.selfNs) / 1e3 / (float64(t.n) / per)
}

// writeTrace writes every span as one JSON line, then prints a
// per-name summary (count, total and self time, DRAM) to w.
func writeTrace(path string, spans []span, w io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	tot := totals(spans)
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return tot[names[i]].firstIndex < tot[names[j]].firstIndex })
	fmt.Fprintf(w, "span %-24s %8s %12s %12s %12s\n", "name", "count", "total_ms", "self_ms", "dram")
	for _, n := range names {
		t := tot[n]
		fmt.Fprintf(w, "span %-24s %8d %12.3f %12.3f %12d\n", n, t.count,
			float64(t.durNs)/1e6, float64(t.selfNs)/1e6, t.dram)
	}
	fmt.Fprintf(w, "span file %s (%d spans)\n", path, len(spans))
	return nil
}
