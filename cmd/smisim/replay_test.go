package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestReplayIgnoresRetiredFlags: manifests written before a flag was
// removed still record it among their flags ("shards" from per-cell
// engine sharding; "fastpath", plus its accounting block, from the
// analytic dispatcher). Replay skips flags the command no longer
// defines and loading ignores unknown blocks, so such a manifest still
// reproduces its run's stdout byte for byte.
func TestReplayIgnoresRetiredFlags(t *testing.T) {
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

	for _, tc := range []struct {
		name  string
		flag  string
		value string
		block map[string]any // legacy top-level manifest block, if any
	}{
		{"shards", "shards", "2", nil},
		{"fastpath", "fastpath", "auto", map[string]any{
			"fastpath": map[string]any{"mode": "auto", "hits": 0, "misses": 1,
				"miss_reasons": map[string]any{"runs": 1}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var doc map[string]any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			flags, ok := doc["flags"].(map[string]any)
			if !ok {
				t.Fatalf("manifest has no flags object: %s", data)
			}
			flags[tc.flag] = tc.value
			for k, v := range tc.block {
				doc[k] = v
			}
			legacy := filepath.Join(dir, tc.name+".json")
			enc, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(legacy, enc, 0o644); err != nil {
				t.Fatal(err)
			}

			code, got, stderr := runCLI(t, "-replay", legacy)
			if code != 0 {
				t.Fatalf("replay exited %d: %s", code, stderr)
			}
			if got != want {
				t.Fatalf("replay of a manifest carrying %s=%s differs:\n got: %q\nwant: %q", tc.flag, tc.value, got, want)
			}
		})
	}
}
