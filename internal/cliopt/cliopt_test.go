package cliopt

import (
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
