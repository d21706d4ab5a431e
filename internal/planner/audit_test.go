package planner

import (
	"reflect"
	"testing"

	"pase/internal/itspace"
	"pase/internal/machine"
	"pase/internal/models"
)

// auditRule classes one field of Options, Config or Request: either it is in
// the solve fingerprint, or it cannot change a cached answer.
type auditRule struct {
	inFingerprint bool
	reason        string
	// method is the method of the request the field is varied on (a field
	// that only one method reads is varied under that method).
	method string
	// vary sets the field to a value other than the base request's and the
	// zero Config's; nil when a field has no such probe (see its reason).
	vary func(*Request, *Config)
}

// TestFingerprintAudit walks every field of Options, Config and Request by
// reflection and fails on one that is not classed, or on a class that names a
// field which no longer exists. A field "in the solve fingerprint" must move a
// prepared request's fingerprint when varied; a field that "cannot change a
// cached answer" must not move it. Config fields are varied under a beam
// request that names no width: a planner-level default would resolve it.
func TestFingerprintAudit(t *testing.T) {
	in := func(method, reason string, vary func(*Request, *Config)) auditRule {
		return auditRule{inFingerprint: true, reason: reason, method: method, vary: vary}
	}
	not := func(method, reason string, vary func(*Request, *Config)) auditRule {
		return auditRule{reason: reason, method: method, vary: vary}
	}
	rules := map[string]auditRule{
		"Request.G":    in("", "the graph's canonical encoding opens the request block", func(r *Request, _ *Config) { r.G = models.RNNLM(64) }),
		"Request.Spec": in("", "the machine's canonical encoding", func(r *Request, _ *Config) { r.Spec = machine.RTX2080Ti(8) }),
		"Request.Opts": not("", "not itself a key: each Options field is classed below", nil),

		"Options.Method":          in("", "every method but dp is labelled", func(r *Request, _ *Config) { r.Opts.Method = "mcmc" }),
		"Options.MCMC":            in("mcmc", "normalized, then encoded under mcmc", func(r *Request, _ *Config) { r.Opts.MCMC.Seed = 7 }),
		"Options.MCMCInit":        in("mcmc", "the chain's seed strategy, encoded under mcmc", func(r *Request, _ *Config) { r.Opts.MCMCInit = "expert:cnn" }),
		"Options.Policy":          in("", "the enumeration policy's canonical encoding", func(r *Request, _ *Config) { r.Opts.Policy = itspace.EnumPolicy{MaxSplitDims: 1} }),
		"Options.MaxTableEntries": in("", "the effective budget decides OOM and degradation", func(r *Request, _ *Config) { r.Opts.MaxTableEntries = 1 << 20 }),
		"Options.BreadthFirst":    in("", "the ordering decides M, States and OOM", func(r *Request, _ *Config) { r.Opts.BreadthFirst = true }),
		"Options.Workers":         not("", "results are byte-identical at any worker count", func(r *Request, _ *Config) { r.Opts.Workers = 3 }),
		"Options.BeamWidth":       in("beam", "the effective width, encoded under beam", func(r *Request, _ *Config) { r.Opts.BeamWidth = 8 }),
		"Options.GapTarget":       in("beam", "≤ 0 normalizes to -1 (one pass); > 0 encoded under beam", func(r *Request, _ *Config) { r.Opts.GapTarget = 0.1 }),
		"Options.Priority":        not("", "orders waiters for a solve slot only", func(r *Request, _ *Config) { r.Opts.Priority = 5 }),

		"Config.ResultCacheSize":  not("beam", "bounds how many answers are kept, not what they are", func(_ *Request, c *Config) { c.ResultCacheSize = 1 }),
		"Config.DeltaCacheSize":   not("beam", "a delta re-solve answers exactly as a cold solve does", func(_ *Request, c *Config) { c.DeltaCacheSize = -1 }),
		"Config.MaxInFlight":      not("beam", "admission only: a pressure-degraded answer is never cached", func(_ *Request, c *Config) { c.MaxInFlight = 1 }),
		"Config.MaxQueue":         not("beam", "admission only: a pressure-degraded answer is never cached", func(_ *Request, c *Config) { c.MaxQueue = 2 }),
		"Config.DegradeBeamWidth": not("beam", "fixed for a planner's life, and ReadSnapshot drops answers degraded at another width", func(_ *Request, c *Config) { c.DegradeBeamWidth = 8 }),
		"Config.FaultPlan":        not("beam", "test and debug only: nil in production", func(_ *Request, c *Config) { c.FaultPlan = mustFaultPlan(t, "solve:latency:1ms") }),
	}

	seen := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeFor[Request](), reflect.TypeFor[Options](), reflect.TypeFor[Config]()} {
		for i := range typ.NumField() {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			rule, ok := rules[name]
			if !ok || rule.reason == "" {
				t.Errorf("%s is not classed: add it as in the solve fingerprint or as unable to change a cached answer, with its reason", name)
				continue
			}
			if rule.vary == nil {
				continue
			}
			base := alexReq(8)
			base.Opts.Method = rule.method
			varied, cfg := base, Config{}
			rule.vary(&varied, &cfg)
			basePrep, err := New(Config{}).Prepare(base)
			if err != nil {
				t.Fatalf("%s: base request: %v", name, err)
			}
			variedPrep, err := New(cfg).Prepare(varied)
			if err != nil {
				t.Fatalf("%s: varied request: %v", name, err)
			}
			if moved := variedPrep.Fingerprint() != basePrep.Fingerprint(); moved != rule.inFingerprint {
				t.Errorf("%s: varying it moved the fingerprint = %v, but it is classed in the fingerprint = %v (%s)",
					name, moved, rule.inFingerprint, rule.reason)
			}
		}
	}
	for name := range rules {
		if !seen[name] {
			t.Errorf("%s is classed but is no longer a field", name)
		}
	}
}
