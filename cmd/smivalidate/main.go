// Command smivalidate is the paper-fidelity gate: it re-runs the
// reproduced tables, figures and extension studies, aggregates each
// cell across repeated seeds, and judges the results against the
// declarative tolerance bands in internal/paperdata and the ordering/
// residual gates in internal/fidelity.
//
// Usage:
//
//	smivalidate -quick                    # PR tier: reduced grids
//	smivalidate -full                     # main tier: paper-scale grids
//	smivalidate -only table3              # one artifact
//	smivalidate -quick -json report.json  # machine-readable report
//	smivalidate -quick -golden results/golden   # also byte-compare goldens
//	smivalidate -update-golden            # regenerate results/golden
//	smivalidate -bench-baseline results/BENCH_sweeps.json \
//	    -bench-new new_bench.json -bench-tol 15   # perf regression gate
//
// Exit status: 0 when every gate passes, 1 when any gate fails or the
// run errors, 2 on usage errors. -smi-scale deliberately perturbs the
// simulated physics (multiplying every SMI duration) so the gates can
// be demonstrated to trip; CI never sets it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"smistudy/internal/experiments"
	"smistudy/internal/fidelity"
	"smistudy/internal/obs"
	"smistudy/internal/paperdata"
	"smistudy/internal/parsweep"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and status, so tests can drive
// the full flag surface without spawning processes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smivalidate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "quick tier: reduced grids, PR CI (default)")
	full := fs.Bool("full", false, "full tier: paper-scale grids, main CI")
	only := fs.String("only", "", "comma-separated artifact subset (e.g. table3,figure1)")
	seeds := fs.String("seeds", "", "comma-separated base seeds (default 1,2)")
	runs := fs.Int("runs", 0, "runs per cell within one seed (0 = tier default)")
	parallel := fs.Int("parallel", 0, "concurrent sweep cells (0 = all CPUs, 1 = sequential)")
	jsonOut := fs.String("json", "", "write the machine-readable report JSON to this file")
	golden := fs.String("golden", "", "byte-compare each artifact's JSON against <dir>/<artifact>.json (quick tier)")
	updateGolden := fs.Bool("update-golden", false, "regenerate the golden JSONs (into -golden, default results/golden) and exit")
	smiScale := fs.Float64("smi-scale", 0, "physics perturbation: multiply every SMI duration (0 or 1 = off)")
	expectFile := fs.String("expectations", "", "JSON expectation set overriding the built-in per-cell bands")
	benchBaseline := fs.String("bench-baseline", "", "bench mode: committed BENCH_sweeps.json baseline")
	benchNew := fs.String("bench-new", "", "bench mode: freshly measured BENCH_sweeps.json")
	benchTol := fs.Float64("bench-tol", 15, "bench mode: allowed regression percent per entry")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "smivalidate:", err)
		return 1
	}
	if *quick && *full {
		fmt.Fprintln(stderr, "smivalidate: -quick and -full are mutually exclusive")
		return 2
	}
	if (*benchBaseline == "") != (*benchNew == "") {
		fmt.Fprintln(stderr, "smivalidate: -bench-baseline and -bench-new must be given together")
		return 2
	}

	if *benchBaseline != "" {
		cmp, err := compareBenchFiles(*benchBaseline, *benchNew, *benchTol)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, cmp.Render())
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, cmp); err != nil {
				return fail(err)
			}
		}
		if !cmp.Ok() {
			return 1
		}
		return 0
	}

	seedList, err := parseSeeds(*seeds)
	if err != nil {
		fmt.Fprintln(stderr, "smivalidate:", err)
		return 2
	}
	cfg := fidelity.Config{
		Full:     *full,
		Only:     splitList(*only),
		Seeds:    seedList,
		Runs:     *runs,
		Workers:  workerCount(*parallel),
		SMIScale: *smiScale,
		GoldenDir: func() string {
			if *updateGolden {
				return ""
			}
			return *golden
		}(),
	}
	if *expectFile != "" {
		data, err := os.ReadFile(*expectFile)
		if err != nil {
			return fail(err)
		}
		set, err := paperdata.ParseExpectations(data)
		if err != nil {
			return fail(err)
		}
		cfg.Expectations = &set
	}

	if *updateGolden {
		dir := *golden
		if dir == "" {
			dir = filepath.Join("results", "golden")
		}
		manifest := obs.Capture("smivalidate", fs, "json", "golden", "update-golden")
		if err := fidelity.UpdateGolden(cfg, dir, &manifest); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "regenerated goldens in %s (%s tier)\n", dir, cfg.Tier())
		return 0
	}

	rep, err := fidelity.Validate(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprint(stdout, rep.Render())
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, *rep); err != nil {
			return fail(err)
		}
	}
	if !rep.Ok() {
		return 1
	}
	return 0
}

// workerCount resolves the -parallel flag (0 = every CPU).
func workerCount(parallel int) int {
	if parallel < 1 {
		return parsweep.Workers(0)
	}
	return parallel
}

// parseSeeds parses a comma-separated seed list.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range splitList(s) {
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -seeds entry %q: %w", part, err)
		}
		if v == 0 {
			return nil, fmt.Errorf("bad -seeds entry %q: seed 0 means \"default\" throughout the tree and would silently alias seed 1", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitList splits a comma-separated flag, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// compareBenchFiles loads both bench reports and judges the regression.
func compareBenchFiles(baselinePath, newPath string, tolPct float64) (fidelity.BenchComparison, error) {
	baseline, err := loadBench(baselinePath)
	if err != nil {
		return fidelity.BenchComparison{}, err
	}
	fresh, err := loadBench(newPath)
	if err != nil {
		return fidelity.BenchComparison{}, err
	}
	return fidelity.CompareBench(baseline, fresh, tolPct), nil
}

func loadBench(path string) (experiments.BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return experiments.BenchReport{}, err
	}
	return fidelity.LoadBenchReport(data)
}

// writeJSON writes v's JSON form to path.
func writeJSON(path string, v interface{ JSON() ([]byte, error) }) error {
	data, err := v.JSON()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}
