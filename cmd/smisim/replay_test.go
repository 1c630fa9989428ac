package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestReplayIgnoresRetiredShardsFlag: manifests written before the
// per-cell engine sharding was removed record "shards" among their
// flags. Replay skips flags the command no longer defines, so such a
// manifest still reproduces its run's stdout byte for byte.
func TestReplayIgnoresRetiredShardsFlag(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "run.json")
	code, want, stderr := runCLI(t, "-workload", "nas", "-bench", "EP", "-class", "S",
		"-nodes", "2", "-runs", "2", "-manifest", manifest)
	if code != 0 || want == "" {
		t.Fatalf("run exited %d with %d stdout bytes: %s", code, len(want), stderr)
	}

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	flags, ok := doc["flags"].(map[string]any)
	if !ok {
		t.Fatalf("manifest has no flags object: %s", data)
	}
	flags["shards"] = "2"
	legacy := filepath.Join(dir, "legacy.json")
	data, err = json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, got, stderr := runCLI(t, "-replay", legacy)
	if code != 0 {
		t.Fatalf("replay exited %d: %s", code, stderr)
	}
	if got != want {
		t.Fatalf("replay of a manifest carrying shards=2 differs:\n got: %q\nwant: %q", got, want)
	}
}
