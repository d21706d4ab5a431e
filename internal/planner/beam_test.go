package planner

import (
	"context"
	"math"
	"testing"
	"time"

	"pase/internal/machine"
	"pase/internal/models"
)

// Beam identity rules: the effective width and gap target are part of the
// solve fingerprint (distinct knobs must not collide in the result cache)
// but never the model fingerprint (the model is method-independent).
func TestBeamFingerprint(t *testing.T) {
	base := alexReq(8)
	beam := base
	beam.Opts.Method = "beam"
	beam.Opts.BeamWidth = 16

	mA, sA := Fingerprints(base)
	mB, sB := Fingerprints(beam)
	if mA != mB {
		t.Error("beam method changed the model fingerprint")
	}
	if sA == sB {
		t.Error("beam method did not change the solve fingerprint")
	}

	wider := beam
	wider.Opts.BeamWidth = 32
	if _, s := Fingerprints(wider); s == sB {
		t.Error("distinct beam widths collided")
	}
	targeted := beam
	targeted.Opts.GapTarget = 0.1
	if _, s := Fingerprints(targeted); s == sB {
		t.Error("distinct gap targets collided")
	}

	// The beam knobs are ignored — and must not perturb identity — for
	// every other method. (Solve clears them before fingerprinting; the
	// fingerprint itself only reads them under method "beam".)
	dpWithWidth := base
	dpWithWidth.Opts.BeamWidth = 16
	if _, s := Fingerprints(dpWithWidth); s != sA {
		t.Error("BeamWidth leaked into a dp fingerprint")
	}

	// A width-less beam runs at DefaultBeamWidth whatever the Config, and a
	// negative width has no meaning.
	p := New(Config{})
	for _, c := range []struct {
		name    string
		width   int
		wantErr bool
	}{
		{name: "no width on a zero Config", width: 0},
		{name: "negative width", width: -1, wantErr: true},
	} {
		req := beam
		req.Opts.BeamWidth = c.width
		prep, err := p.Prepare(req)
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: Prepare accepted it", c.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		explicit := beam
		explicit.Opts.BeamWidth = 32
		if want, err := p.Prepare(explicit); err != nil || prep.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: fingerprint differs from BeamWidth 32's (%v)", c.name, err)
		}
	}

	// Every gap target <= 0 means one pass and shares one fingerprint; a
	// positive target is another request.
	targetFP := func(target float64) string {
		req := beam
		req.Opts.GapTarget = target
		prep, err := p.Prepare(req)
		if err != nil {
			t.Fatalf("GapTarget %v: %v", target, err)
		}
		return prep.Fingerprint().String()
	}
	single := targetFP(-1)
	for _, target := range []float64{0, -7} {
		if targetFP(target) != single {
			t.Errorf("GapTarget %v: fingerprint differs from GapTarget -1's", target)
		}
	}
	if targetFP(0.1) == single {
		t.Error("GapTarget 0.1 shares the single pass's fingerprint")
	}
}

// A beam answer is a function of its request. A width-less, target-less beam
// on gptdeep:3 at p=32 under a caller deadline runs one pass, whatever the
// deadline: its identical repeat is a cache hit with the same cost bits, it
// shares the fingerprint of the explicit single pass (GapTarget -1), and a
// second planner answers it with the same bits.
func TestBeamAnswerIsAFunctionOfItsRequest(t *testing.T) {
	bm, err := models.ByName("gptdeep:3")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{G: bm.Build(bm.Batch), Spec: machine.GTX1080Ti(32), Opts: Options{Method: "beam", Policy: bm.Policy(32)}}
	solve := func(p *Planner) *Result {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		res, err := p.Solve(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	p := New(Config{})
	first, again := solve(p), solve(p)
	if !again.Cached || math.Float64bits(again.Cost) != math.Float64bits(first.Cost) {
		t.Errorf("repeat: cached %v cost %v, want a cache hit at cost %v", again.Cached, again.Cost, first.Cost)
	}
	single := req
	single.Opts.GapTarget = -1
	prep, err := p.Prepare(req)
	if err != nil {
		t.Fatal(err)
	}
	prepSingle, err := p.Prepare(single)
	if err != nil {
		t.Fatal(err)
	}
	if prep.Fingerprint() != prepSingle.Fingerprint() {
		t.Error("a beam with no gap target does not share the GapTarget -1 fingerprint")
	}
	if other := solve(New(Config{})); math.Float64bits(other.Cost) != math.Float64bits(first.Cost) {
		t.Errorf("a second planner answered cost %v, the first %v", other.Cost, first.Cost)
	}
}

// A bounded beam solve through the planner: the default width resolves, the
// gap contract holds against the exact dp optimum, the stats counters thread
// through, and the identical repeat is a cache hit.
func TestBeamSolveThroughPlanner(t *testing.T) {
	p := New(Config{})
	req := alexReq(8)

	dpRes, err := p.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	beamReq := alexReq(8)
	beamReq.Opts.Method = "beam"
	res, err := p.Solve(context.Background(), beamReq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "beam" || res.BeamWidth != DefaultBeamWidth {
		t.Fatalf("method %q width %d, want beam at the default width %d", res.Method, res.BeamWidth, DefaultBeamWidth)
	}
	if res.Cost < dpRes.Cost {
		t.Errorf("beam cost %v below the exact optimum %v", res.Cost, dpRes.Cost)
	}
	if lower := res.Cost / (1 + res.Gap); lower > dpRes.Cost*(1+1e-9) {
		t.Errorf("gap %v claims optimum >= %v, but exact is %v", res.Gap, lower, dpRes.Cost)
	}
	st := p.Stats()
	if st.BeamSolves != 1 {
		t.Errorf("BeamSolves = %d, want 1", st.BeamSolves)
	}
	if st.LastGap != res.Gap {
		t.Errorf("LastGap = %v, want the solve's gap %v", st.LastGap, res.Gap)
	}

	again, err := p.Solve(context.Background(), beamReq)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("identical beam request was not a cache hit")
	}
	if again.Cost != res.Cost || again.Gap != res.Gap || again.BeamWidth != res.BeamWidth {
		t.Error("cached beam result lost its gap/width metadata")
	}
}

// Compare's default method list always carries the beam column, at
// DefaultBeamWidth unless the request names a width.
func TestCompareIncludesBeamColumn(t *testing.T) {
	beamWidth := func(c *Comparison) int {
		for _, e := range c.Entries {
			if e.Method == "beam" && e.Err == nil && e.Result != nil {
				return e.Result.BeamWidth
			}
		}
		return 0
	}

	p := New(Config{})
	req := alexReq(8)
	for _, c := range []struct{ width, want int }{{0, DefaultBeamWidth}, {8, 8}} {
		cmp, err := p.Compare(context.Background(), CompareRequest{
			G: req.G, Spec: req.Spec, Family: "cnn", Opts: Options{BeamWidth: c.width},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := beamWidth(cmp); got != c.want {
			t.Errorf("Opts.BeamWidth %d: beam entry at width %d, want %d", c.width, got, c.want)
		}
	}
}

// The served beam, pinned by equality: gptdeep:12 at p=32, one pass at W=8
// and at W=32, the two requests the beam_deep benchmark sends. The planner
// solves them on the eliminated model, whose narrower tables halve the gap
// the full model's pass reports (2.4135 at the same cost bits, core's
// TestBeamPassesPinned) and its States (1,033,798 and 2,233,247 there); a
// moved count or bit means the elimination, the beam kernel or the route
// changed.
func TestServedBeamPinned(t *testing.T) {
	bm, err := models.ByName("gptdeep:12")
	if err != nil {
		t.Fatal(err)
	}
	g := bm.Build(bm.Batch)
	for _, pin := range []struct {
		width             int
		states            int64
		costBits, gapBits uint64
	}{
		{8, 545485, 0x3fb9c0b49ada1900, 0x3ff456916dfefa58},
		{32, 1118022, 0x3fb9c0b49ada1900, 0x3ff456916dfefa58},
	} {
		req := Request{G: g, Spec: machine.GTX1080Ti(32), Opts: Options{Method: "beam", BeamWidth: pin.width, GapTarget: -1, Policy: bm.Policy(32), Workers: 1}}
		res, err := New(Config{}).Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.States != pin.states || math.Float64bits(res.Cost) != pin.costBits || math.Float64bits(res.Gap) != pin.gapBits || res.Timings.Elim <= 0 {
			t.Errorf("W=%d: states %d, cost %#x (%v), gap %#x (%v), elim %v; pinned states %d, cost %#x, gap %#x, elim > 0",
				pin.width, res.States, math.Float64bits(res.Cost), res.Cost, math.Float64bits(res.Gap), res.Gap, res.Timings.Elim, pin.states, pin.costBits, pin.gapBits)
		}
	}
}
