package cliopt

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlc"
)

// TestApplyValidatesFinishedOptions pins that Apply checks the options it
// produced, sampling plan included, and builds no store for a rejected
// combination. Each error must name what is wrong.
func TestApplyValidatesFinishedOptions(t *testing.T) {
	cases := []struct {
		name  string
		flags *Flags
		field string // empty = valid
	}{
		{"full run", &Flags{Cores: 1}, ""},
		{"uniform plan fits", &Flags{Cores: 1, Sample: 5, Length: 200}, ""},
		{"default phase shape", &Flags{Cores: 1, Phase: true, Length: 2000}, ""},
		{"uniform plan longer than the run", &Flags{Cores: 1, Sample: 50, Length: 2000}, "Intervals=50"},
		{"sample with phase", &Flags{Cores: 1, Sample: 50, Length: 2, Phase: true}, "Intervals=50"},
		{"more clusters than windows", &Flags{Cores: 1, PhaseWindows: 8, PhaseClusters: 9}, "PhaseClusters=9"},
		{"zero cores", &Flags{Cores: 0}, "-cores 0"},
		{"unknown sharing", &Flags{Cores: 2, Sharing: "nope"}, "nope"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opt := tlc.DefaultOptions()
			opt.RunInstructions = 1000
			c.flags.CkptDir = t.TempDir()
			err := c.flags.Apply(&opt)
			if c.field == "" {
				if err != nil {
					t.Fatalf("Apply = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Apply = nil, want an error naming %s", c.field)
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Errorf("error %q does not name %s", err, c.field)
			}
			if opt.Checkpoints != nil || opt.PhaseProfiles != nil {
				t.Error("a rejected combination still built a store")
			}
		})
	}
}

// TestWarnDiskReportsUnwritableDir points -ckptdir below a regular file,
// where no directory can be created (whatever the user's permissions), so
// every checkpoint and phase-profile write fails. The run still succeeds,
// and WarnDisk names each store's failure once; a writable directory
// warns nothing.
func TestWarnDiskReportsUnwritableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dir  string
		want []string
	}{
		{filepath.Join(file, "ckpt"), []string{"checkpoints not persisted", "phase profiles not persisted"}},
		{t.TempDir(), nil},
	} {
		f := &Flags{Cores: 1, Phase: true, PhaseWindows: 4, PhaseClusters: 2, Length: 200, CkptDir: tc.dir}
		opt := tlc.Options{WarmInstructions: 10_000, RunInstructions: 20_000, Seed: 1}
		if err := f.Apply(&opt); err != nil {
			t.Fatal(err)
		}
		if _, err := tlc.RunSampled(tlc.DesignTLC, "gcc", opt); err != nil {
			t.Fatalf("%s: %v", tc.dir, err)
		}
		var buf bytes.Buffer
		f.WarnDisk(&buf)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		if len(tc.want) == 0 {
			if buf.Len() != 0 {
				t.Errorf("%s: writable directory warned: %q", tc.dir, buf.String())
			}
			continue
		}
		if len(lines) != len(tc.want) {
			t.Fatalf("%s: warnings %q, want one per store", tc.dir, buf.String())
		}
		for i, w := range tc.want {
			if !strings.Contains(lines[i], w) || !strings.Contains(lines[i], "not a directory") {
				t.Errorf("%s: warning %q, want it to name %q and the cause", tc.dir, lines[i], w)
			}
		}
	}
}
