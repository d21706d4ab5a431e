package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadTrajectory(t *testing.T) {
	dir := t.TempDir()

	traj, err := loadTrajectory(filepath.Join(dir, "missing.json"))
	if err != nil || traj.Schema != trajectorySchema || len(traj.Entries) != 0 {
		t.Fatalf("missing path: got %+v, %v; want an empty trajectory", traj, err)
	}

	for name, content := range map[string]string{
		"report": `{"schema": "pase-bench/v1", "results": []}`,
		"junk":   "not json",
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadTrajectory(path); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: loading %q gave %v; want an error naming the path", name, content, err)
		}
	}

	// The committed trajectories must parse: a run would otherwise fail to
	// append to BENCH_solver.json, and BENCH_serve.json shares its schema.
	for _, name := range []string{"BENCH_solver.json", "BENCH_serve.json"} {
		traj, err = loadTrajectory("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		if len(traj.Entries) == 0 {
			t.Fatalf("%s has no entries", name)
		}
	}
}
