package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"pase"
)

// memoKeyRule classes one field of the wire request: either it is in the
// fingerprint pased keys its memo and routes under, or it cannot change an
// answer.
type memoKeyRule struct {
	inFingerprint bool
	reason        string
	// method is the options.method of the body the field is varied on (a
	// field that only one method reads is varied under that method).
	method string
	// vary sets the field to a value other than the base body's; nil when a
	// field has no such probe (see its reason).
	vary func(*solveRequest)
}

// TestMemoKeyAudit walks every field of solveRequest and solveOptions by
// reflection and fails on one that is not classed, or on a class that names a
// field which no longer exists. Each field is varied on the body
// {"model":"alexnet","gpus":8}: a field "in the fingerprint" must move the
// fingerprint lower keys the memo under, and a field that "cannot change an
// answer" must not move it.
func TestMemoKeyAudit(t *testing.T) {
	in := func(method, reason string, vary func(*solveRequest)) memoKeyRule {
		return memoKeyRule{inFingerprint: true, reason: reason, method: method, vary: vary}
	}
	not := func(method, reason string, vary func(*solveRequest)) memoKeyRule {
		return memoKeyRule{reason: reason, method: method, vary: vary}
	}
	rules := map[string]memoKeyRule{
		"solveRequest.Model": in("", "names the registry graph", func(r *solveRequest) { r.Model = "rnnlm" }),
		"solveRequest.Spec": in("", "an inline spec brings its own graph and machine", func(r *solveRequest) {
			r.Model, r.GPUs, r.Spec = "", 0, json.RawMessage(tinySpec)
		}),
		"solveRequest.Batch":    in("", "sizes every tensor of the graph", func(r *solveRequest) { r.Batch = 64 }),
		"solveRequest.GPUs":     in("", "the device count of the machine", func(r *solveRequest) { r.GPUs = 16 }),
		"solveRequest.Machine":  in("", "the machine's rates", func(r *solveRequest) { r.Machine = "2080ti" }),
		"solveRequest.Priority": not("", "orders waiters for a solve slot only", func(r *solveRequest) { r.Priority = 5 }),
		"solveRequest.Options":  not("", "not itself a key: each solveOptions field is classed below", nil),

		"solveOptions.Method":            in("", "every method but dp is labelled", func(r *solveRequest) { r.Options.Method = "mcmc" }),
		"solveOptions.BeamWidth":         in("beam", "the effective width, encoded under beam", func(r *solveRequest) { r.Options.BeamWidth = 8 }),
		"solveOptions.GapTarget":         in("beam", "> 0 doubles the width, encoded under beam", func(r *solveRequest) { r.Options.GapTarget = 0.1 }),
		"solveOptions.MCMCSeed":          in("mcmc", "seeds the chain, encoded under mcmc", func(r *solveRequest) { r.Options.MCMCSeed = 7 }),
		"solveOptions.MaxSplitDims":      in("", "replaces the model's default enumeration policy", func(r *solveRequest) { r.Options.MaxSplitDims = 1 }),
		"solveOptions.RequireFullDegree": in("", "replaces the model's default enumeration policy", func(r *solveRequest) { r.Options.RequireFullDegree = true }),
		"solveOptions.MaxTableEntries":   in("", "the effective budget decides OOM and degradation", func(r *solveRequest) { r.Options.MaxTableEntries = 1 << 20 }),
		"solveOptions.BreadthFirst":      in("", "the ordering decides M, States and OOM", func(r *solveRequest) { r.Options.BreadthFirst = true }),
		"solveOptions.Workers":           not("", "results are byte-identical at any worker count", func(r *solveRequest) { r.Options.Workers = 3 }),
	}

	s := newServer(pase.NewPlanner(pasedDefaults), 64, 0)
	lowerFP := func(name string, sr solveRequest) pase.Fingerprint {
		t.Helper()
		body, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		prep, _, apiErr := s.lower(body)
		if apiErr != nil {
			t.Fatalf("%s: lower(%s): %+v", name, body, apiErr)
		}
		return prep.Fingerprint()
	}
	seen := map[string]bool{}
	for _, typ := range []reflect.Type{reflect.TypeFor[solveRequest](), reflect.TypeFor[solveOptions]()} {
		for i := range typ.NumField() {
			name := typ.Name() + "." + typ.Field(i).Name
			seen[name] = true
			rule, ok := rules[name]
			if !ok || rule.reason == "" {
				t.Errorf("%s is not classed: add it as in the fingerprint or as unable to change an answer, with its reason", name)
				continue
			}
			if rule.vary == nil {
				continue
			}
			base := solveRequest{Model: "alexnet", GPUs: 8, Options: &solveOptions{Method: rule.method}}
			varied := base
			opts := *base.Options
			varied.Options = &opts
			rule.vary(&varied)
			if moved := lowerFP(name, varied) != lowerFP(name, base); moved != rule.inFingerprint {
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
