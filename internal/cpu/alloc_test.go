package cpu

import (
	"testing"

	"smistudy/internal/sim"
)

// steadyModel builds a loaded HTT processor — 8 logical CPUs, 12
// threads — whose jobs restart from their own completion callbacks, so
// running the engine keeps rescheduling forever. It also returns a
// pointer to the count of completed jobs.
func steadyModel() (*sim.Engine, *Model, *int) {
	e := sim.New(1)
	m := MustNew(e, testParams())
	completed := new(int)
	for i := 0; i < 12; i++ {
		th := m.NewThread("w", Profile{CPI: 1, MissRate: 0.001 * float64(i%3)})
		ops := float64(20000 + 1000*i) // 20–31 µs of work
		var restart func()
		restart = func() {
			*completed++
			m.StartCompute(th, ops, restart)
		}
		m.StartCompute(th, ops, restart)
	}
	return e, m, completed
}

// TestRescheduleAllocFree pins the cpu layer's hot path: once warm,
// job starts and completions, node-wide SMM stalls and per-CPU steals
// reschedule without allocating, both through the model's own API and
// through Thread.Compute on a process.
func TestRescheduleAllocFree(t *testing.T) {
	t.Run("model", func(t *testing.T) {
		e, m, completed := steadyModel()
		cycle := func() {
			e.RunUntil(e.Now() + 50*sim.Microsecond) // completions + restarts
			m.Stall()
			e.RunUntil(e.Now() + 10*sim.Microsecond)
			m.Unstall()
			m.StallCPU(3)
			e.RunUntil(e.Now() + 10*sim.Microsecond)
			m.UnstallCPU(3)
		}
		for i := 0; i < 64; i++ { // warm the event free list and scratch
			cycle()
		}
		before := *completed
		if got := testing.AllocsPerRun(200, cycle); got != 0 {
			t.Fatalf("reschedule cycle allocates %.1f allocs/op, want 0", got)
		}
		if *completed == before {
			t.Fatal("no job completed during the measured cycles: the test is vacuous")
		}
	})
	t.Run("thread-compute", func(t *testing.T) {
		e := sim.New(1)
		m := MustNew(e, testParams())
		computed := 0
		for i := 0; i < 12; i++ {
			th := m.NewThread("w", Profile{CPI: 1})
			ops := float64(20000 + 1000*i)
			e.Go("w", func(p *sim.Proc) {
				for {
					th.Compute(p, ops)
					computed++
				}
			})
		}
		defer e.Shutdown()
		step := func() { e.RunUntil(e.Now() + 50*sim.Microsecond) }
		for i := 0; i < 64; i++ {
			step()
		}
		before := computed
		if got := testing.AllocsPerRun(200, step); got != 0 {
			t.Fatalf("Thread.Compute cycle allocates %.1f allocs/op, want 0", got)
		}
		if computed == before {
			t.Fatal("no Compute returned during the measured steps: the test is vacuous")
		}
	})
}
