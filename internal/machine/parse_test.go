package machine

import (
	"strings"
	"testing"
)

func TestParseNamedProfiles(t *testing.T) {
	s, err := Parse("1080ti", 16)
	if err != nil || s.Name != "1080Ti" || s.Devices != 16 {
		t.Fatalf("Parse(1080ti) = %+v, %v", s, err)
	}
	if s, err = Parse("2080TI", 8); err != nil || s.Name != "2080Ti" {
		t.Fatalf("Parse(2080TI) = %+v, %v", s, err)
	}
}

func TestParseUniform(t *testing.T) {
	s, err := Parse("uniform:8:11.3e12:12e9:10e9", 32)
	if err != nil {
		t.Fatal(err)
	}
	if s.Devices != 32 || s.GPUsPerNode != 8 || s.PeakFLOPS != 11.3e12 ||
		s.IntraBW != 12e9 || s.InterBW != 10e9 {
		t.Fatalf("bad spec: %+v", s)
	}
	// The analytic link bandwidth blends intra/inter the same way the
	// built-in profiles do.
	if want := avgBW(32, 8, 12e9, 10e9); s.LinkBW != want {
		t.Fatalf("LinkBW = %g, want blended %g", s.LinkBW, want)
	}
	// Single-node: pure intra bandwidth.
	s, err = Parse("uniform:8:1e12:5e9:1e9", 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.LinkBW != 5e9 {
		t.Fatalf("single-node LinkBW = %g, want 5e9", s.LinkBW)
	}
}

func TestParseErrorsAreHelpful(t *testing.T) {
	for spec, wantSub := range map[string]string{
		"v100":                   "unknown spec",
		"uniform:8:1e12":         "fields",
		"uniform:x:1e12:1:1":     "devices-per-node",
		"uniform:8:zap:1:1":      "flops",
		"uniform:8:1e12:-1:1":    "intra-bw",
		"uniform:8:1e12:1:bad":   "inter-bw",
		"uniform:8:nan:1:1":      "flops",
		"uniform:8:1e12:Inf:1":   "intra-bw",
		"uniform:8:1e12:1:inf":   "inter-bw",
		"uniform:8:1e12:1:1e999": "inter-bw",
	} {
		_, err := Parse(spec, 8)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("Parse(%q) error %q does not mention %q", spec, err, wantSub)
		}
		if !strings.Contains(err.Error(), "uniform:<devices-per-node>") && spec != "v100" {
			t.Errorf("Parse(%q) error %q does not show the expected format", spec, err)
		}
	}
}

func TestUniformDelegatesToUniformCluster(t *testing.T) {
	a := Uniform(4, 1e12, 1e10)
	b := UniformCluster(4, 4, 1e12, 1e10, 1e10)
	if a != b {
		t.Fatalf("Uniform != single-node UniformCluster:\n%+v\n%+v", a, b)
	}
}
