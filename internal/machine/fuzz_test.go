package machine

import (
	"math"
	"testing"
)

// Parse never panics, and every spec it accepts validates with finite,
// positive rates: nothing downstream has to guard against a NaN or an
// infinite cost.
func FuzzMachineParse(f *testing.F) {
	for _, seed := range []struct {
		name    string
		devices int
	}{
		{"1080ti", 8},
		{"2080TI", 32},
		{"uniform:8:11.3e12:12e9:10e9", 32},
		{"uniform:8:nan:12e9:10e9", 8},
		{"uniform:8:11e12:12e9:inf", 32},
		{"uniform:1:1e-300:1e-300:1e308", 1 << 20},
		{"uniform:0:1:1:1", 0},
		{"1080ti", -13},
		{"v100", 8},
	} {
		f.Add(seed.name, seed.devices)
	}
	f.Fuzz(func(t *testing.T, name string, devices int) {
		s, err := Parse(name, devices)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse(%q, %d) accepted a spec that fails Validate: %v", name, devices, err)
		}
		for field, v := range map[string]float64{"PeakFLOPS": s.PeakFLOPS, "LinkBW": s.LinkBW, "IntraBW": s.IntraBW, "InterBW": s.InterBW} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Fatalf("Parse(%q, %d) accepted %s = %g", name, devices, field, v)
			}
		}
	})
}
