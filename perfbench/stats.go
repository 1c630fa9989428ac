package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile.
const tailMinBeyond = 10

// tail returns the highest whole percentile that has at least
// tailMinBeyond samples beyond it, with its nearest-rank value. Runs
// too short for any percentile of 50 or more to qualify report the
// median (p = 50).
func tail(xs []float64) (p int, v float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 50, 0
	}
	for p = 99; p > 50; p-- {
		idx := int(math.Ceil(float64(p)/100*float64(n))) - 1
		if n-1-idx >= tailMinBeyond {
			return p, s[idx]
		}
	}
	return 50, median(xs)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// rssPasses is how many fresh processes an end-to-end run of a
// simulation workload starts to read peak_rss_mb.
const rssPasses = 11

// freshPeakRSS runs rssPasses --rss-pass children of this binary, one
// after another, each of which sets the workload up, runs and checks
// one pass of its cells, and reports its own resident-set high-water
// mark. It returns the median of those peaks and the operations the
// children checked. The peak of one long-lived process is the largest
// of thousands of garbage-collection cycles and moves with where they
// happen to fall; the median over fresh processes, the footprint a user
// sees running the cells once, does not.
func freshPeakRSS(c config) (float64, outcome, error) {
	var checked outcome
	exe, err := os.Executable()
	if err != nil {
		return 0, checked, err
	}
	var peaks []float64
	for k := 0; k < rssPasses; k++ {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(exe, "--rss-pass", "--root", c.root, "--workload", c.workload,
			"--seed", strconv.FormatInt(c.seed, 10))
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return 0, checked, fmt.Errorf("--rss-pass child: %v\n%s", err, stderr.Bytes())
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return 0, checked, fmt.Errorf("--rss-pass child printed no result: %v", err)
		}
		checked.attempted += res.Attempted
		checked.failed += res.Failed
		if !res.Correct {
			checked.wrong += res.Failed
			fmt.Fprintf(c.log, "--rss-pass child:\n%s", stdout.Bytes())
		}
		peaks = append(peaks, res.Metrics["peak_rss_mb"].Value)
	}
	fmt.Fprintf(c.log, "fresh-process peak RSS (MiB): %.2f\n", peaks)
	return median(peaks), checked, nil
}
