package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"

	"tlc"
)

// cellRef is one operation's reference output: simulated cycles, IPC, and
// a digest of the run's full metric-registry snapshot.
type cellRef struct {
	Cycles uint64  `json:"cycles"`
	IPC    float64 `json:"ipc"`
	Digest string  `json:"digest"`
}

// refFile is one workload's references for one workload seed, keyed by
// operation name (design/benchmark, plus /s<run seed> for served runs).
type refFile struct {
	Workload     string             `json:"workload"`
	WorkloadSeed int64              `json:"workload_seed"`
	Cells        map[string]cellRef `json:"cells"`
}

func refPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.ws%d.json", workload, seed))
}

// loadRefs reads the reference file of workload at workload seed seed.
func loadRefs(dir, workload string, seed int64) (*refFile, error) {
	data, err := os.ReadFile(refPath(dir, workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("no reference file for %s at workload seed %d (generate one with -write-refs)", workload, seed)
	}
	if err != nil {
		return nil, err
	}
	var rf refFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", refPath(dir, workload, seed), err)
	}
	if rf.Workload != workload || rf.WorkloadSeed != seed || len(rf.Cells) == 0 {
		return nil, fmt.Errorf("%s: holds %s at workload seed %d with %d cells", refPath(dir, workload, seed), rf.Workload, rf.WorkloadSeed, len(rf.Cells))
	}
	return &rf, nil
}

// save writes the reference file, indented so a diff names the changed cell.
func (rf *refFile) save(dir string) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(refPath(dir, rf.Workload, rf.WorkloadSeed), append(data, '\n'), 0o644)
}

// digest hashes every field of every metric in a registry snapshot.
func digest(snap tlc.MetricsSnapshot) string {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, m := range snap {
		u64(uint64(len(m.Name)))
		h.Write([]byte(m.Name))
		h.Write([]byte(m.Kind))
		u64(math.Float64bits(m.Value))
		for _, v := range []uint64{m.Count, m.Min, m.Max, m.P50, m.P95, m.P99} {
			u64(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// verify checks every output in got against its reference and returns one
// failure per mismatching operation, in operation-name order.
func (rf *refFile) verify(got map[string]cellRef) []string {
	ops := make([]string, 0, len(got))
	for op := range got {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	var failures []string
	for _, op := range ops {
		if f := rf.check(op, got[op]); f != "" {
			failures = append(failures, f)
		}
	}
	return failures
}

// check compares one operation's output with its reference and returns a
// failure description, or "" when it matches exactly.
func (rf *refFile) check(op string, got cellRef) string {
	want, ok := rf.Cells[op]
	switch {
	case !ok:
		return op + ": no reference"
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("%s: cycles %d, reference %d", op, got.Cycles, want.Cycles)
	case got.IPC != want.IPC:
		return fmt.Sprintf("%s: IPC %v, reference %v", op, got.IPC, want.IPC)
	case got.Digest != want.Digest:
		return fmt.Sprintf("%s: metrics digest %s, reference %s", op, got.Digest, want.Digest)
	}
	return ""
}
