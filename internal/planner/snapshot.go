package planner

// Warm restarts (DESIGN.md "Pressure & degradation"): a planner's solved-result
// LRU is rebuilt from scratch on every process start, so a crash or rolling
// restart turns a warm daemon into a cold one exactly when callers are
// retrying hardest. A snapshot captures the result cache deterministically;
// restoring one on boot makes the first repeat request a cache hit again.
// Cost models are not persisted: a cold model build costs milliseconds.
//
// The format is defensive in three layers. The outer envelope names the
// format version and carries a canon fingerprint of every version label the
// cached keys and costs depend on (snapshotLabels): a snapshot written by a
// build with different solve/class semantics or kernel numerics is detected
// *before* any payload decoding and discarded as stale (restoring it would
// serve results under keys the new code would never compute, or costs a fresh
// solve would not reproduce). The payload bytes are SHA-256 checksummed,
// so a torn or bit-rotted file is rejected rather than half-restored. And
// writes are atomic (temp file + rename), so a crash mid-checkpoint leaves
// the previous snapshot intact.
//
// Cache recency survives the round trip: the cache serializes entries least
// recent first, and restore re-inserts in slice order, so the re-Put sequence
// reproduces the original eviction order.

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pase/internal/canon"
	"pase/internal/core"
)

// snapshotFormat is the snapshot envelope version. Bump it when the envelope
// or payload layout changes incompatibly — gob matches fields by name and
// drops the ones it cannot place, so a moved field decodes as silently zero
// (v2: Result's provenance fields moved into the embedded export.Provenance).
// A dropped field is compatible: a v2 payload that still carries the class
// store section or the store's per-result hit counts it once held restores
// its results, those fields ignored. So is the fold of SearchTime and
// ModelTime into Timings: gob ignores the dropped two on restore, a missing
// Timings decodes as zero, and a hit rewrites Timings anyway.
const snapshotFormat = "pase.planner.snapshot/v2"

// ErrSnapshotStale is returned by ReadSnapshot/LoadSnapshot when the file is
// not a snapshot this build can use: wrong format version, fingerprint-scheme
// mismatch (the cached keys would be dead), or payload corruption. Callers
// should log it and start cold — it is a warning, not a fatal error.
var ErrSnapshotStale = errors.New("planner: snapshot stale or corrupt")

// snapshotLabels lists every version label that participates in cache-key or
// cost identity: the fingerprint schemes the cached keys were computed under,
// and the kernel numerics the cached costs were computed by.
var snapshotLabels = []string{
	"pase.request/v1",      // request/solve fingerprints (result-cache keys)
	"graph.Graph",          // graph content fingerprints
	"cost.vertex-class/v1", // the schemes behind a cached result's
	"cost.edge-class/v2",   // vertex_classes and edge_classes counts
	"cost.elim/v2",         // beam and degraded results are solved on the eliminated model
	"core.states/v2",       // and counts every candidate of the linear scan, not the pruned scan's
	"cost.table-bytes/v3",  // table_bytes counts each TX table's stored quotient once, without a view
	core.KernelVersion,     // the numerics behind every cached cost
}

// snapshotFingerprint pins a snapshot to the semantics its keys and values
// were computed under. Bumping any label (or the list itself drifting)
// invalidates old snapshots instead of serving results under keys the new
// code would never compute, or costs it would not reproduce.
func snapshotFingerprint(labels []string) canon.Fingerprint {
	w := canon.NewWriter()
	w.Label(snapshotFormat)
	for _, label := range labels {
		w.Str(label)
	}
	return w.Sum()
}

// snapshotResult is one result-cache entry in wire form, least recent first
// in the payload slice.
type snapshotResult struct {
	Key    canon.Fingerprint
	Result Result
}

// snapshotPayload is the checksummed inner body.
type snapshotPayload struct {
	Results []snapshotResult
}

// snapshotEnvelope is the outer wire form: version and fingerprint are
// validated before the payload is decoded, and Sum guards the payload bytes.
type snapshotEnvelope struct {
	Format      string
	Fingerprint canon.Fingerprint
	Sum         [sha256.Size]byte
	Payload     []byte
}

// WriteSnapshot serializes the planner's result cache to w. In-flight solves
// are not captured — a snapshot taken under load holds whatever has been
// published so far.
func (p *Planner) WriteSnapshot(w io.Writer) error {
	var pay snapshotPayload
	p.mu.Lock()
	pay.Results = make([]snapshotResult, 0, p.results.Len())
	p.results.Each(func(k canon.Fingerprint, r *Result) {
		pay.Results = append(pay.Results, snapshotResult{Key: k, Result: *r})
	})
	p.mu.Unlock()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&pay); err != nil {
		return fmt.Errorf("planner: encode snapshot payload: %w", err)
	}
	env := snapshotEnvelope{
		Format:      snapshotFormat,
		Fingerprint: snapshotFingerprint(snapshotLabels),
		Sum:         sha256.Sum256(buf.Bytes()),
		Payload:     buf.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(&env); err != nil {
		return fmt.Errorf("planner: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot restores a snapshot written by WriteSnapshot into the
// planner's result cache, returning how many results were restored. A
// snapshot from an incompatible build or with a corrupt payload returns
// ErrSnapshotStale without touching the cache. Restored entries never
// displace ones already present (live state wins over the snapshot's). An
// OOM-degraded result is cached under its plain dp fingerprint, so it is
// skipped unless this planner degrades at the width it was solved at.
func (p *Planner) ReadSnapshot(r io.Reader) (results int, err error) {
	var env snapshotEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return 0, fmt.Errorf("%w: envelope: %v", ErrSnapshotStale, err)
	}
	if env.Format != snapshotFormat {
		return 0, fmt.Errorf("%w: format %q, want %q", ErrSnapshotStale, env.Format, snapshotFormat)
	}
	if fp := snapshotFingerprint(snapshotLabels); env.Fingerprint != fp {
		return 0, fmt.Errorf("%w: fingerprint scheme %s, want %s", ErrSnapshotStale, env.Fingerprint, fp)
	}
	if sum := sha256.Sum256(env.Payload); sum != env.Sum {
		return 0, fmt.Errorf("%w: payload checksum mismatch", ErrSnapshotStale)
	}
	var pay snapshotPayload
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&pay); err != nil {
		return 0, fmt.Errorf("%w: payload: %v", ErrSnapshotStale, err)
	}

	p.mu.Lock()
	for i := range pay.Results {
		sr := &pay.Results[i]
		if _, ok := p.results.Get(sr.Key); ok {
			continue
		}
		if sr.Result.Degraded && sr.Result.BeamWidth != p.cfg.DegradeBeamWidth {
			continue
		}
		res := sr.Result
		p.results.Put(sr.Key, &res)
		results++
	}
	p.stats.RestoredResults += int64(results)
	p.mu.Unlock()
	return results, nil
}

// SaveSnapshot writes a snapshot to path atomically: the bytes land in a
// temp file in path's directory and replace path only on a complete, synced
// write, so a crash mid-checkpoint never clobbers the previous snapshot.
func (p *Planner) SaveSnapshot(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("planner: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := p.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("planner: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("planner: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("planner: publish snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores the snapshot at path. A missing file is not an
// error — it reports (0, nil), the cold-start case. ErrSnapshotStale means
// the file exists but is unusable; callers should log and continue cold.
func (p *Planner) LoadSnapshot(path string) (results int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("planner: open snapshot: %w", err)
	}
	defer f.Close()
	return p.ReadSnapshot(f)
}
