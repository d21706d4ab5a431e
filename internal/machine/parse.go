package machine

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse resolves a machine-spec string for p devices. Accepted forms:
//
//   - "1080ti" — the paper's GTX 1080 Ti platform
//   - "2080ti" — the paper's RTX 2080 Ti platform
//   - "uniform:<devices-per-node>:<flops>:<intra-bw>:<inter-bw>" — a custom
//     single-link-class cluster via UniformCluster; flops in FLOP/s and
//     bandwidths in bytes/s, plain or scientific notation
//     (e.g. "uniform:8:11.3e12:12e9:10e9").
//
// It is the single parser behind the pase CLI's -machine flag and the pased
// daemon's "machine" request field.
func Parse(name string, devices int) (Spec, error) {
	var spec Spec
	switch s := strings.ToLower(strings.TrimSpace(name)); {
	case s == "1080ti":
		spec = GTX1080Ti(devices)
	case s == "2080ti":
		spec = RTX2080Ti(devices)
	case strings.HasPrefix(s, "uniform:"):
		return parseUniform(s, devices)
	default:
		return Spec{}, fmt.Errorf(
			"machine: unknown spec %q (want 1080ti, 2080ti, or uniform:<devices-per-node>:<flops>:<intra-bw>:<inter-bw>, e.g. uniform:8:11.3e12:12e9:10e9)", name)
	}
	return spec, spec.Validate()
}

func parseUniform(s string, devices int) (Spec, error) {
	const usage = "uniform:<devices-per-node>:<flops>:<intra-bw>:<inter-bw> (e.g. uniform:8:11.3e12:12e9:10e9 — flops in FLOP/s, bandwidths in bytes/s)"
	parts := strings.Split(s, ":")
	if len(parts) != 5 {
		return Spec{}, fmt.Errorf("machine: uniform spec %q has %d fields, want %s", s, len(parts)-1, usage)
	}
	perNode, err := strconv.Atoi(parts[1])
	if err != nil || perNode < 1 {
		return Spec{}, fmt.Errorf("machine: uniform devices-per-node %q must be a positive integer; want %s", parts[1], usage)
	}
	nums := make([]float64, 3)
	for i, fieldName := range []string{"flops", "intra-bw", "inter-bw"} {
		v, err := strconv.ParseFloat(parts[i+2], 64)
		if err != nil || !positiveFinite(v) {
			return Spec{}, fmt.Errorf("machine: uniform %s %q must be a positive finite number; want %s", fieldName, parts[i+2], usage)
		}
		nums[i] = v
	}
	spec := UniformCluster(devices, perNode, nums[0], nums[1], nums[2])
	return spec, spec.Validate()
}
