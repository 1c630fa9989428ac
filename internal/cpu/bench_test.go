package cpu

// Rescheduling benchmark: the cpu layer's row in the per-layer cost
// table. Every job start, completion and stall edge reschedules the
// whole node, so ns/op here times the path threaded cells spend most of
// their host time in.
//
//	go test ./internal/cpu -bench=Reschedule -benchmem

import (
	"testing"

	"smistudy/internal/sim"
)

// BenchmarkReschedule measures one per-CPU steal edge (StallCPU or
// UnstallCPU, alternating over the 8 logical CPUs) plus 10 µs of
// simulated progress, on a node kept busy by 12 self-restarting jobs —
// about one job completion and restart per op on top of the edge.
func BenchmarkReschedule(b *testing.B) {
	e, m, completed := steadyModel()
	for i := 0; i < 64; i++ {
		e.RunUntil(e.Now() + 10*sim.Microsecond)
	}
	before := *completed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if id := (i / 2) % m.NumLogical(); i%2 == 0 {
			m.StallCPU(id)
		} else {
			m.UnstallCPU(id)
		}
		e.RunUntil(e.Now() + 10*sim.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(*completed-before)/float64(b.N), "completions/op")
}
