package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"smistudy/internal/runner"
	"smistudy/internal/scenario"
)

// recordDigests runs every default-seed input once, in-process and
// untraced, and writes the per-cell output digests that runs at the
// default seed are checked against. Regenerate it only when a change is
// meant to alter simulated results (the goldens change with it).
func recordDigests(root, path string, log io.Writer) error {
	out := committedDigests{}
	add := func(workload, name string, doc []byte) error {
		d, err := runDigest(doc)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", workload, name, err)
		}
		if out[workload] == nil {
			out[workload] = map[string]string{}
		}
		if prev, ok := out[workload][name]; ok && prev != d {
			return fmt.Errorf("%s/%s: two inputs share the name", workload, name)
		}
		out[workload][name] = d
		return nil
	}
	for _, w := range []struct {
		name string
		gen  func(int64) []cell
	}{{"mpi-noise", mpiNoiseCells}, {"threaded-os", threadedOSCells}, {"trace-report", traceReportCells}} {
		for _, c := range w.gen(defaultSeed) {
			if err := add(w.name, c.name, c.doc); err != nil {
				return err
			}
		}
		fmt.Fprintf(log, "%s: %d cells\n", w.name, len(out[w.name]))
	}
	for i, doc := range preseedSpecs(defaultSeed) {
		if err := add("sweep-service", fmt.Sprintf("preseed-%d", i), doc); err != nil {
			return err
		}
	}
	for _, doc := range anchorSubmission("").specs {
		sp, err := scenario.Parse(doc)
		if err != nil {
			return err
		}
		if err := add("sweep-service", sp.Name, doc); err != nil {
			return err
		}
	}
	fmt.Fprintf(log, "sweep-service: %d specs\n", len(out["sweep-service"]))
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runDigest runs a spec document in-process, untraced, and returns its
// output digest.
func runDigest(doc []byte) (string, error) {
	sp, err := scenario.Parse(doc)
	if err != nil {
		return "", err
	}
	m, err := runner.Run(sp)
	if err != nil {
		return "", err
	}
	data, err := m.JSON()
	if err != nil {
		return "", err
	}
	return digest(data)
}
