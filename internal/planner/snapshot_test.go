package planner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pase/internal/canon"
	"pase/internal/core"
	"pase/internal/export"
)

// TestSnapshotRoundTrip: a fresh planner restored from a snapshot serves the
// snapshotted requests as cache hits, byte-identical to the originals. The
// snapshot holds the results only, so two of them fit well under 16 KiB.
func TestSnapshotRoundTrip(t *testing.T) {
	a := New(Config{})
	reqs := []Request{alexReq(8), rnnReq(8)}
	originals := make([]*Result, len(reqs))
	for i, req := range reqs {
		res, err := a.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		originals[i] = res
	}

	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	if buf.Len() >= 16<<10 {
		t.Fatalf("snapshot of %d results is %d B, want < 16 KiB: it should hold results only", len(reqs), buf.Len())
	}

	b := New(Config{})
	nres, err := b.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if nres != len(reqs) {
		t.Fatalf("restored %d results, want %d", nres, len(reqs))
	}
	if st := b.Stats(); st.RestoredResults != int64(len(reqs)) {
		t.Fatalf("RestoredResults = %d, want %d", st.RestoredResults, len(reqs))
	}

	for i, req := range reqs {
		res, err := b.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Cached {
			t.Fatalf("request %d after restore: not a cache hit", i)
		}
		// Byte-identical modulo the serve-time fields a cache hit always
		// rewrites (Cached, Timings).
		got, want := *res, *originals[i]
		got.Cached, got.Timings = false, Timings{}
		want.Cached, want.Timings = false, Timings{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d: restored result differs from original:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if st := b.Stats(); st.Solves != 0 || st.ModelBuilds != 0 {
		t.Fatalf("restored planner ran new work: %+v", st)
	}
}

// storeEntryV2 is the class-store entry the v2 payload carried, in the
// Classes section, until the snapshot stopped persisting the store.
type storeEntryV2 struct {
	Key   canon.Fingerprint
	Kind  uint8
	Bytes int64
	Cfgs  [][]int
	TL    []float64
	Tab   []float64
	TabT  []float64
}

// payloadWithStoreFields re-types rs as the v2 payload a build wrote while
// the planner had a class store: every provenance also carries the store's
// ClassStoreHits and ClassStoreBytes, here non-zero. The old shape is built
// by reflection, so it follows Result and export.Provenance as they stand.
func payloadWithStoreFields(rs []snapshotResult) any {
	int64T := reflect.TypeFor[int64]()
	var pf []reflect.StructField
	provT := reflect.TypeFor[export.Provenance]()
	for i := range provT.NumField() {
		f := provT.Field(i)
		f.Anonymous = false
		pf = append(pf, f)
	}
	pf = append(pf,
		reflect.StructField{Name: "ClassStoreHits", Type: int64T},
		reflect.StructField{Name: "ClassStoreBytes", Type: int64T})
	var rf []reflect.StructField
	resT := reflect.TypeFor[Result]()
	for i := range resT.NumField() {
		f := resT.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Name == "Provenance" {
			f.Type, f.Anonymous = reflect.StructOf(pf), false
		}
		rf = append(rf, f)
	}
	entry := reflect.StructOf([]reflect.StructField{
		{Name: "Key", Type: reflect.TypeFor[canon.Fingerprint]()},
		{Name: "Result", Type: reflect.StructOf(rf)},
	})
	out := reflect.MakeSlice(reflect.SliceOf(entry), len(rs), len(rs))
	for i, r := range rs {
		out.Index(i).Field(0).Set(reflect.ValueOf(r.Key))
		dst, src := out.Index(i).Field(1), reflect.ValueOf(r.Result)
		for j := range dst.NumField() {
			name := dst.Type().Field(j).Name
			if name != "Provenance" {
				dst.Field(j).Set(src.FieldByName(name))
				continue
			}
			prov, srcProv := dst.Field(j), src.FieldByName(name)
			for k := range srcProv.NumField() {
				prov.Field(k).Set(srcProv.Field(k))
			}
			prov.FieldByName("ClassStoreHits").SetInt(12)
			prov.FieldByName("ClassStoreBytes").SetInt(4096)
		}
	}
	pay := reflect.New(reflect.StructOf([]reflect.StructField{{Name: "Results", Type: out.Type()}})).Elem()
	pay.Field(0).Set(out)
	return pay.Interface()
}

// TestSnapshotWithClassSectionRestoresResults: a v2 snapshot written while
// the planner had a class store — a payload with a Classes section, or
// results whose provenance carries the store's hit counts, under today's
// labels and a correct checksum — still restores its results, identical to
// the originals; gob drops what this build no longer declares. An
// OOM-degraded result is cached under the plain dp fingerprint, so it is
// restored only by a planner that degrades at the width it was solved at: any
// other planner would answer that request differently (another width, or
// ErrOOM with degradation off).
func TestSnapshotWithClassSectionRestoresResults(t *testing.T) {
	a := New(Config{})
	res, err := a.Solve(context.Background(), alexReq(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var env snapshotEnvelope
	if err := gob.NewDecoder(&buf).Decode(&env); err != nil {
		t.Fatal(err)
	}
	var pay snapshotPayload
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&pay); err != nil {
		t.Fatal(err)
	}
	degradedPrep, err := a.Prepare(alexReq(16))
	if err != nil {
		t.Fatal(err)
	}
	degraded := snapshotResult{Key: degradedPrep.Fingerprint(), Result: *res}
	degraded.Result.Fingerprint = degradedPrep.Fingerprint().String()
	degraded.Result.Exact, degraded.Result.Gap, degraded.Result.BeamWidth = false, 0.5, 16
	degraded.Result.Degraded, degraded.Result.DegradeReason = true, DegradeReasonOOM
	withDegraded := snapshotPayload{Results: append(slices.Clone(pay.Results), degraded)}
	for _, tc := range []struct {
		name string
		old  any
		cfg  Config
		// degraded reports that the restoring planner keeps the W=16
		// degraded answer to alexReq(16) as well as the alexReq(8) one.
		degraded bool
	}{
		{name: "classes section", old: struct {
			Results []snapshotResult
			Classes []storeEntryV2
		}{pay.Results, []storeEntryV2{
			{Key: canon.Fingerprint{1}, Kind: 1, Bytes: 40, Cfgs: [][]int{{1, 8}}, TL: []float64{0.5}},
			{Key: canon.Fingerprint{2}, Kind: 2, Bytes: 16, Tab: []float64{1}, TabT: []float64{1}},
		}}},
		{name: "store provenance", old: payloadWithStoreFields(pay.Results)},
		{name: "degraded at the restoring width", old: withDegraded, cfg: Config{DegradeBeamWidth: 16}, degraded: true},
		{name: "degraded at another width", old: withDegraded, cfg: Config{DegradeBeamWidth: 8}},
		{name: "degraded, degradation off", old: withDegraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var oldPay bytes.Buffer
			if err := gob.NewEncoder(&oldPay).Encode(tc.old); err != nil {
				t.Fatal(err)
			}
			env := env
			env.Payload, env.Sum = oldPay.Bytes(), sha256.Sum256(oldPay.Bytes())
			var parent bytes.Buffer
			if err := gob.NewEncoder(&parent).Encode(&env); err != nil {
				t.Fatal(err)
			}

			b := New(tc.cfg)
			want := 1
			if tc.degraded {
				want = 2
			}
			if n, err := b.ReadSnapshot(&parent); err != nil || n != want {
				t.Fatalf("restored %d results, %v; want %d", n, err, want)
			}
			hit, err := b.Solve(context.Background(), alexReq(8))
			if err != nil {
				t.Fatal(err)
			}
			if !hit.Cached || !reflect.DeepEqual(hit.Provenance, res.Provenance) ||
				hit.Cost != res.Cost || !reflect.DeepEqual(hit.Strategy, res.Strategy) {
				t.Fatalf("restored result: cached=%v cost=%v %+v, want a hit of cost %v %+v",
					hit.Cached, hit.Cost, hit.Provenance, res.Cost, res.Provenance)
			}
			if r, _ := b.Lookup(degraded.Key); (r != nil) != tc.degraded {
				t.Fatalf("degraded W=16 answer restored = %v, want %v", r != nil, tc.degraded)
			}
		})
	}
}

// TestSnapshotPreservesRecency: restore reproduces LRU order, so the first
// post-restore eviction drops the entry that was least recent at save time.
func TestSnapshotPreservesRecency(t *testing.T) {
	a := New(Config{ResultCacheSize: 2})
	reqA, reqB := alexReq(8), alexReq(16)
	for _, req := range []Request{reqA, reqB, reqA} { // touch A last
		if _, err := a.Solve(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(Config{ResultCacheSize: 2})
	if _, err := b.ReadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	// A third unique request evicts the least recently used entry: B.
	if _, err := b.Solve(context.Background(), rnnReq(8)); err != nil {
		t.Fatal(err)
	}
	resA, err := b.Solve(context.Background(), reqA)
	if err != nil {
		t.Fatal(err)
	}
	if !resA.Cached {
		t.Fatal("most-recent entry A was evicted; snapshot lost recency order")
	}
	resB, err := b.Solve(context.Background(), reqB)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Cached {
		t.Fatal("least-recent entry B survived; snapshot lost recency order")
	}
}

// TestSnapshotStaleAndCorruptDiscarded: wrong-format, truncated, and
// bit-flipped snapshots are rejected with ErrSnapshotStale before touching
// any cache; a missing file is a clean cold start.
func TestSnapshotStaleAndCorruptDiscarded(t *testing.T) {
	a := New(Config{})
	if _, err := a.Solve(context.Background(), alexReq(8)); err != nil {
		t.Fatal(err)
	}
	var valid bytes.Buffer
	if err := a.WriteSnapshot(&valid); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cases := map[string][]byte{
		"garbage":   []byte("not a snapshot at all"),
		"truncated": valid.Bytes()[:valid.Len()/2],
	}
	// Bit-flip deep in the payload: the envelope decodes but the checksum
	// must catch it.
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[len(flipped)-10] ^= 0xff
	cases["bitflip"] = flipped
	// A future format version is stale, not an error to decode.
	var wrongFormat bytes.Buffer
	if err := gob.NewEncoder(&wrongFormat).Encode(&snapshotEnvelope{Format: "pase.planner.snapshot/v999"}); err != nil {
		t.Fatal(err)
	}
	cases["wrongformat"] = wrongFormat.Bytes()
	// A fingerprint-scheme mismatch (stale build) is also stale.
	var wrongFP bytes.Buffer
	if err := gob.NewEncoder(&wrongFP).Encode(&snapshotEnvelope{Format: snapshotFormat}); err != nil {
		t.Fatal(err)
	}
	cases["wrongfp"] = wrongFP.Bytes()
	// A snapshot from before the kernel numerics were versioned: intact in
	// every other respect, written under the label list without
	// core.KernelVersion. Its costs may differ from a fresh solve's by an ulp.
	var env snapshotEnvelope
	if err := gob.NewDecoder(bytes.NewReader(valid.Bytes())).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if last := snapshotLabels[len(snapshotLabels)-1]; last != core.KernelVersion {
		t.Fatalf("snapshotLabels ends with %q, want core.KernelVersion", last)
	}
	env.Fingerprint = snapshotFingerprint(snapshotLabels[:len(snapshotLabels)-1])
	var oldNumerics bytes.Buffer
	if err := gob.NewEncoder(&oldNumerics).Encode(&env); err != nil {
		t.Fatal(err)
	}
	cases["oldnumerics"] = oldNumerics.Bytes()
	// A snapshot written by PR 22, the last build with the exact-dedup stage:
	// its label list had three more entries, and a cached mcmc answer over a
	// graph with duplicate configurations is not what a fresh solve returns.
	pr22, err := hex.DecodeString("4abb7b1323104b1294881666a9ae14f02df9b14d31275d83c39436ac7bae786b")
	if err != nil {
		t.Fatal(err)
	}
	copy(env.Fingerprint[:], pr22)
	var dedupEra bytes.Buffer
	if err := gob.NewEncoder(&dedupEra).Encode(&env); err != nil {
		t.Fatal(err)
	}
	cases["dedupera"] = dedupEra.Bytes()
	// A v1 snapshot, intact and under today's labels: its Results hold the
	// provenance fields flat, where gob would leave the embedded Provenance
	// zero — a hit would serve no method and no fingerprint.
	v1, err := hex.DecodeString("ad5783bca3e097f214a522c2bd26db8c4cf581dc7691953b0e325353bd8ef2c1")
	if err != nil {
		t.Fatal(err)
	}
	env.Format = "pase.planner.snapshot/v1"
	copy(env.Fingerprint[:], v1)
	var v1Layout bytes.Buffer
	if err := gob.NewEncoder(&v1Layout).Encode(&env); err != nil {
		t.Fatal(err)
	}
	cases["v1layout"] = v1Layout.Bytes()
	// A snapshot written by the last build that solved dp requests on the
	// full model: its costs and strategies are today's, but its dp results
	// carry the full model's States.
	preElim, err := hex.DecodeString("51deb5b66ace651daee9e5067ec7c433755df70e173cadadfc91a6f7b69250bc")
	if err != nil {
		t.Fatal(err)
	}
	env.Format = snapshotFormat
	copy(env.Fingerprint[:], preElim)
	var preElimStates bytes.Buffer
	if err := gob.NewEncoder(&preElimStates).Encode(&env); err != nil {
		t.Fatal(err)
	}
	cases["preelim"] = preElimStates.Bytes()
	// A snapshot written by the last build that solved beam and degraded
	// requests on the full model: its beam costs, gaps and States are not
	// what the eliminated model gives.
	fullBeam, err := hex.DecodeString("ac9b454072e0d67375da0b9ef74242740b145997db3a269e2406911e0bc2e1cc")
	if err != nil {
		t.Fatal(err)
	}
	copy(env.Fingerprint[:], fullBeam)
	var fullBeamEra bytes.Buffer
	if err := gob.NewEncoder(&fullBeamEra).Encode(&env); err != nil {
		t.Fatal(err)
	}
	cases["fullbeam"] = fullBeamEra.Bytes()

	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		p := New(Config{})
		nres, err := p.LoadSnapshot(path)
		if !errors.Is(err, ErrSnapshotStale) {
			t.Errorf("%s: want ErrSnapshotStale, got %v", name, err)
		}
		if nres != 0 {
			t.Errorf("%s: rejected snapshot restored %d results", name, nres)
		}
		if st := p.Stats(); st.RestoredResults != 0 {
			t.Errorf("%s: RestoredResults = %d after rejection", name, st.RestoredResults)
		}
		// The planner starts cold: the snapshotted request is solved afresh.
		if res, err := p.Solve(context.Background(), alexReq(8)); err != nil || res.Cached {
			t.Errorf("%s: solve after rejection: cached=%v err=%v, want a fresh solve", name, res != nil && res.Cached, err)
		}
	}

	p := New(Config{})
	if nres, err := p.LoadSnapshot(filepath.Join(dir, "missing")); err != nil || nres != 0 {
		t.Fatalf("missing snapshot: want clean cold start, got (%d, %v)", nres, err)
	}
}

// TestSaveSnapshotAtomicAndReloadable: SaveSnapshot publishes a loadable file
// and overwrites a previous snapshot in place without leaving temp litter.
func TestSaveSnapshotAtomicAndReloadable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pased.snapshot")

	a := New(Config{})
	if _, err := a.Solve(context.Background(), alexReq(8)); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint with more state overwrites the first.
	if _, err := a.Solve(context.Background(), rnnReq(8)); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "pased.snapshot" {
		t.Fatalf("snapshot dir not clean: %v", entries)
	}

	b := New(Config{})
	nres, err := b.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if nres != 2 {
		t.Fatalf("loaded %d results, want 2", nres)
	}
	res, err := b.Solve(context.Background(), rnnReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached {
		t.Fatal("warm restart did not serve a cache hit")
	}
}
