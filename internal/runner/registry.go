package runner

import (
	"sort"
	"sync"

	"smistudy/internal/scenario"
)

// Workload is one registered experiment kind. Workloads self-register
// from init functions in this package; the registry is the single
// dispatch table behind Run, so adding a workload automatically makes
// it reachable from scenario files, the smisim -scenario flag and the
// -list-workloads listing.
type Workload struct {
	// Name is the scenario.Spec.Workload key (lower-case).
	Name string
	// Summary is a one-line description for listings.
	Summary string
	// Validate rejects specs this workload cannot execute, before any
	// engine is built. Errors are wrapped in ErrInvalidSpec by RunWith.
	Validate func(scenario.Spec) error
	// Run lowers the spec to the workload's typed entry point and
	// executes it. On error the returned Measurement may still carry a
	// partial section (the NAS workload reports fault-scenario
	// accounting for failed runs).
	Run func(scenario.Spec, Exec) (Measurement, error)
	// Split, when non-nil, decomposes a multi-repetition spec into
	// independent single-repetition cell specs whose seeds match the
	// workload's internal derivation, so the durable sweep layer can
	// checkpoint, cache and resume at repetition granularity. Returns
	// nil when the spec is not splittable (one run, fault scenarios
	// whose abort semantics span repetitions, ...); the spec then
	// executes as a single durable cell.
	Split func(scenario.Spec) []scenario.Spec
	// Merge reassembles the parent spec's Measurement from its split
	// cells' measurements, in cell order. The result must be
	// byte-identical (canonical JSON) to running the parent spec
	// directly — the equivalence tests pin this per workload.
	Merge func(parent scenario.Spec, parts []Measurement) (Measurement, error)
}

// SplitRuns is the shared repetition-split rule: R > 1 repetitions
// become R copies of the spec with Runs = 1 and seeds base, base+1, ...
// — exactly the derivation the typed entry points use internally, so a
// split cell measures byte-for-byte what repetition i of the parent
// measures.
func SplitRuns(sp scenario.Spec) []scenario.Spec {
	if sp.Runs <= 1 {
		return nil
	}
	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	cells := make([]scenario.Spec, sp.Runs)
	for i := range cells {
		c := sp
		c.Runs = 1
		c.Seed = seed + int64(i)
		cells[i] = c
	}
	return cells
}

var (
	regMu    sync.RWMutex
	registry = map[string]Workload{}
)

// Register adds a workload to the registry; duplicate or empty names
// are programming errors.
func Register(w Workload) {
	if w.Name == "" || w.Run == nil {
		panic("runner: Register needs a name and a Run function")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[w.Name]; dup {
		panic("runner: duplicate workload " + w.Name)
	}
	registry[w.Name] = w
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	w, ok := registry[name]
	return w, ok
}

// Names lists the registered workloads, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
