package planner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"testing"
)

// FuzzReadSnapshot: no input makes the snapshot decoder panic, and every
// rejection is ErrSnapshotStale with the cache left untouched. With wrap
// set, the fuzzed bytes are the payload of a valid envelope — current
// format, current fingerprint, correct checksum — which reaches the payload
// decoder the checksum otherwise shields.
func FuzzReadSnapshot(f *testing.F) {
	a := New(Config{})
	if _, err := a.Solve(context.Background(), alexReq(8)); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := a.WriteSnapshot(&valid); err != nil {
		f.Fatal(err)
	}
	var env snapshotEnvelope
	if err := gob.NewDecoder(bytes.NewReader(valid.Bytes())).Decode(&env); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		wrap bool
		data []byte
	}{{false, valid.Bytes()}, {true, env.Payload}} {
		flipped := append([]byte(nil), seed.data...)
		flipped[len(flipped)*2/3] ^= 0xff
		f.Add(seed.wrap, seed.data)
		f.Add(seed.wrap, seed.data[:len(seed.data)/2])
		f.Add(seed.wrap, flipped)
	}

	f.Fuzz(func(t *testing.T, wrap bool, data []byte) {
		if wrap {
			var buf bytes.Buffer
			err := gob.NewEncoder(&buf).Encode(&snapshotEnvelope{
				Format:      snapshotFormat,
				Fingerprint: snapshotFingerprint(snapshotLabels),
				Sum:         sha256.Sum256(data),
				Payload:     data,
			})
			if err != nil {
				t.Fatal(err)
			}
			data = buf.Bytes()
		}
		p := New(Config{})
		n, err := p.ReadSnapshot(bytes.NewReader(data))
		if err == nil {
			if p.Stats().RestoredResults != int64(n) || p.CacheSizes() > n {
				t.Fatalf("restored %d results, stats count %d, cache holds %d", n, p.Stats().RestoredResults, p.CacheSizes())
			}
			return
		}
		if !errors.Is(err, ErrSnapshotStale) {
			t.Fatalf("rejection %v does not wrap ErrSnapshotStale", err)
		}
		if n != 0 || p.Stats().RestoredResults != 0 || p.CacheSizes() != 0 {
			t.Fatalf("rejected snapshot restored %d results (stats %d, cache %d)",
				n, p.Stats().RestoredResults, p.CacheSizes())
		}
	})
}
