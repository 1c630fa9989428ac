package runner

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"smistudy/internal/scenario"
)

// TestRunLeavesNoGoroutines guards against simulation processes that are
// never stopped: after every example scenario (the faulted one included,
// whose ranks are aborted mid-run) the goroutine count returns to its
// pre-run value.
func TestRunLeavesNoGoroutines(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example scenarios found: %v", err)
	}
	for _, file := range files {
		sp, err := scenario.Load(file)
		if err != nil {
			t.Fatalf("load %s: %v", file, err)
		}
		runtime.GC()
		before := runtime.NumGoroutine()
		_, _ = RunWith(sp, Exec{}) // a faulted run's error is its result
		deadline := time.Now().Add(5 * time.Second)
		for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: goroutines %d -> %d after the run", filepath.Base(file), before, n)
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
	}
}
