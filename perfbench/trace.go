package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request share Trace, the ID of the request's root span.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Trace  uint64        `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the unit ends. A nil tracer records
// nothing, so untraced units pay only a nil check per call.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex
	done []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef identifies an open span to its children.
type spanRef struct{ id, trace uint64 }

// start opens a span under parent (the zero spanRef for a root) and returns
// its reference and the function that closes it.
func (t *tracer) start(name string, parent spanRef) (spanRef, func()) {
	if t == nil {
		return spanRef{}, func() {}
	}
	id := t.next.Add(1)
	ref := spanRef{id: id, trace: parent.trace}
	if ref.trace == 0 {
		ref.trace = id
	}
	begin := time.Since(t.t0)
	return ref, func() {
		s := span{ID: id, Parent: parent.id, Trace: ref.trace, Name: name, Start: begin, End: time.Since(t.t0)}
		t.mu.Lock()
		t.done = append(t.done, s)
		t.mu.Unlock()
	}
}

// durations returns the durations of every closed span with this name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.done {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// writeSpans dumps the recorded spans as JSON.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.done)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runtimeCounters are the Go runtime's cumulative GC counters.
type runtimeCounters struct{ gcCPU, gcCycles float64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCPU: s[0].Value.Float64(), gcCycles: float64(s[1].Value.Uint64())}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{gcCPU: a.gcCPU - b.gcCPU, gcCycles: a.gcCycles - b.gcCycles}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// selfTimeModules are the modules whose CPU self time is reported as
// <module>.self_s. Frames of any other package count to other.self_s.
var selfTimeModules = []string{
	"experiments", "snapshot", "sample", "workload", "cache", "cpu",
	"l2", "tlcache", "nuca", "noc", "sim", "mem", "machine",
	"server", "api", "client", "metrics", "stats", "tlc",
	"encoding_json", "net_http", "runtime", "other",
}

// moduleOf maps a profile frame's function name to its module: frames of
// tlc/internal/<m> to m, the root package to tlc, encoding/json, net/http
// and the Go runtime to their own entries, anything else to other.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "tlc/internal/"):
		m := fn[len("tlc/internal/"):]
		if i := strings.IndexAny(m, "./"); i >= 0 {
			m = m[:i]
		}
		for _, known := range selfTimeModules {
			if m == known {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "tlc."):
		return "tlc"
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(fn, "net/http."):
		return "net_http"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// moduleSelfTimes sums a CPU profile's self (flat) time per module, using
// go tool pprof from the installed toolchain.
func moduleSelfTimes(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(out)
}

// parseTop reads `pprof -top -unit=ms` output: after the header line that
// starts with "flat", each row is flat, flat%, sum%, cum, cum% and the
// function name. Flat times go to the function's module as <module>.self_s,
// and their total to total.self_s.
func parseTop(out []byte) (map[string]float64, error) {
	self := map[string]float64{}
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		fn := strings.Join(f[5:], " ")
		self[moduleOf(fn)+".self_s"] += ms / 1000
		self["total.self_s"] += ms / 1000
	}
	if !rows {
		return nil, fmt.Errorf("pprof output has no table")
	}
	return self, sc.Err()
}
