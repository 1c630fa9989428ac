package cpu

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"smistudy/internal/sim"
)

// Property: aggregate throughput never exceeds the machine peak
// (BaseHz × physical cores for CPI-1 workloads), under any mix of
// threads, hotplug and stalls.
func TestThroughputCeilingProperty(t *testing.T) {
	prop := func(seed int64, nThreads, events uint8) bool {
		e := sim.New(seed)
		par := testParams()
		m := MustNew(e, par)
		rng := rand.New(rand.NewSource(seed))
		k := int(nThreads%16) + 1
		total := 0.0
		for i := 0; i < k; i++ {
			ops := float64(rng.Int63n(5e8) + 1e7)
			total += ops
			th := m.NewThread("t", Profile{CPI: 1})
			m.StartCompute(th, ops, nil)
		}
		// Random hotplug churn.
		for i := 0; i < int(events%6); i++ {
			at := sim.Time(rng.Int63n(int64(sim.Second)))
			n := rng.Intn(par.PhysCores*2) + 1
			e.At(at, func() { _ = m.OnlineFirst(n) })
		}
		e.Run()
		elapsed := e.Now().Seconds()
		if elapsed <= 0 {
			return total == 0
		}
		peak := par.BaseHz * float64(par.PhysCores)
		return total/elapsed <= peak*1.0001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: OS-accounted time ≥ true time always, and they are equal
// when no stalls occur.
func TestAccountingOrderingProperty(t *testing.T) {
	prop := func(seed int64, withStall bool) bool {
		e := sim.New(seed)
		m := MustNew(e, testParams())
		rng := rand.New(rand.NewSource(seed))
		var threads []*Thread
		for i := 0; i < 6; i++ {
			th := m.NewThread("t", Profile{CPI: 1, MissRate: rng.Float64() * 0.005})
			threads = append(threads, th)
			m.StartCompute(th, float64(rng.Int63n(2e8)+1e6), nil)
		}
		if withStall {
			e.At(sim.Time(rng.Int63n(int64(100*sim.Millisecond))), m.Stall)
			e.After(0, func() {}) // keep queue alive
			e.At(200*sim.Millisecond, m.Unstall)
		}
		e.Run()
		for _, th := range threads {
			if th.OSTime() < th.TrueTime() {
				return false
			}
			if !withStall && th.OSTime() != th.TrueTime() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: utilization stays in [0,1] under arbitrary load and hotplug.
func TestUtilizationBoundsProperty(t *testing.T) {
	prop := func(seed int64, n8 uint8) bool {
		e := sim.New(seed)
		m := MustNew(e, testParams())
		for i := 0; i < int(n8%24); i++ {
			th := m.NewThread("t", Profile{CPI: 1})
			m.StartCompute(th, float64(e.Rand().Int63n(1e8)+1), nil)
		}
		e.At(sim.Time(e.Rand().Int63n(int64(sim.Second))), func() {
			_ = m.OnlineFirst(int(e.Rand().Int63n(8)) + 1)
		})
		e.Run()
		u := m.Utilization()
		return u >= 0 && u <= 1.0001
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Sibling symmetry: two identical threads pinned to sibling CPUs must
// run at identical rates (finish together).
func TestSiblingSymmetry(t *testing.T) {
	e := sim.New(1)
	m := MustNew(e, testParams())
	var at [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		th := m.NewThread("t", Profile{CPI: 1, MissRate: 0.003, MissRateShared: 0.005})
		if err := m.Pin(th, i*4); err != nil { // CPU 0 and its sibling CPU 4
			t.Fatal(err)
		}
		m.StartCompute(th, 1e8, func() { at[i] = e.Now() })
	}
	e.Run()
	if at[0] != at[1] {
		t.Fatalf("siblings finished at %v and %v", at[0], at[1])
	}
}

// SMT sharing must never make a thread faster than running solo.
func TestSharingNeverBeatsSoloProperty(t *testing.T) {
	prop := func(seed int64, cpi10, miss1000 uint16) bool {
		cpi := 1 + float64(cpi10%40)/10
		miss := float64(miss1000%30) / 1000
		prof := Profile{CPI: cpi, MissRate: miss}
		run := func(threads int) sim.Time {
			e := sim.New(seed)
			m := MustNew(e, Params{PhysCores: 1, HTT: true, BaseHz: 1e9, MissPenalty: 100, SMTEfficiency: 0.9})
			var last sim.Time
			for i := 0; i < threads; i++ {
				th := m.NewThread("t", prof)
				m.StartCompute(th, 1e7, func() { last = e.Now() })
			}
			e.Run()
			return last
		}
		solo := run(1)
		pair := run(2)
		// Each of the pair must take at least as long as solo.
		return pair >= solo
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestRescheduleMatchesReference drives Model and the pre-optimisation
// refModel through the same random sequences of job starts, stalls,
// hotplug, affinity, profile changes and removals, and requires every
// observable to agree exactly after every step: placement, rates, OS
// shares, accounting, completion order and the engines' event counts.
func TestRescheduleMatchesReference(t *testing.T) {
	const seeds, stepsPerSeed = 20, 100 // 2,000 steps
	completions := 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		par := Params{
			PhysCores:     rng.Intn(4) + 1,
			HTT:           rng.Intn(3) > 0,
			BaseHz:        1e9,
			MissPenalty:   100,
			SMTEfficiency: 0.9,
		}
		if rng.Intn(3) == 0 {
			par.MemBandwidth = 2e7
		}
		if par.HTT && rng.Intn(2) == 0 {
			par.SMTShares = []float64{0.7}
		}
		e, re := sim.New(seed), sim.New(seed)
		m, ref := MustNew(e, par), newRefModel(re, par)
		nl := m.NumLogical()

		type pair struct {
			t         *Thread
			r         *refThread
			computing bool
		}
		var live []*pair
		var got, want []int // completion order, by thread id
		// Profiles come from a small set so equal rates, and with them
		// simultaneous completions, are common.
		randProf := func() Profile {
			p := Profile{CPI: 0.5 + float64(rng.Intn(3))/2, MissRate: float64(rng.Intn(3)) * 0.004}
			if rng.Intn(2) == 0 {
				p.MissRateShared = p.MissRate * 1.5
			}
			return p
		}
		start := func(p *pair, ops float64) {
			id := p.t.id
			p.computing = true
			m.StartCompute(p.t, ops, func() { got = append(got, id); p.computing = false })
			ref.StartCompute(p.r, ops, func() { want = append(want, id) })
		}
		pick := func() *pair {
			if len(live) == 0 {
				return nil
			}
			return live[rng.Intn(len(live))]
		}

		for step := 0; step < stepsPerSeed; step++ {
			switch op := rng.Intn(14); {
			case op <= 1 && len(live) < 3*nl:
				prof := randProf()
				live = append(live, &pair{t: m.NewThread("t", prof), r: ref.NewThread(prof)})
			case op <= 4:
				if p := pick(); p != nil && !p.computing {
					start(p, float64(rng.Int63n(1e7)))
				}
			case op <= 6:
				// Barrier release: every idle thread gets the same work.
				ops := float64(rng.Int63n(1e7))
				for _, p := range live {
					if !p.computing {
						start(p, ops)
					}
				}
			case op == 7:
				if rng.Intn(3) == 0 {
					m.Stall()
					ref.Stall()
				} else {
					m.Unstall()
					ref.Unstall()
				}
			case op == 8:
				id := rng.Intn(nl)
				if rng.Intn(3) == 0 {
					m.StallCPU(id)
					ref.StallCPU(id)
				} else {
					m.UnstallCPU(id)
					ref.UnstallCPU(id)
				}
			case op == 9:
				if p := pick(); p != nil {
					if rng.Intn(3) == 0 {
						m.Unpin(p.t)
						ref.Unpin(p.r)
					} else {
						id := rng.Intn(nl)
						if err := m.Pin(p.t, id); err != nil {
							t.Fatal(err)
						}
						ref.Pin(p.r, id)
					}
				}
			case op == 10:
				id, on := rng.Intn(nl), rng.Intn(3) > 0
				if err := m.SetOnline(id, on); err != nil {
					t.Fatal(err)
				}
				ref.SetOnline(id, on)
			case op == 11:
				n := rng.Intn(nl) + 1
				if err := m.OnlineFirst(n); err != nil {
					t.Fatal(err)
				}
				ref.OnlineFirst(n)
			case op == 12:
				if p := pick(); p != nil {
					prof := randProf()
					m.SetProfile(p.t, prof)
					ref.SetProfile(p.r, prof)
				}
			case op == 13:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					m.Remove(live[i].t)
					ref.Remove(live[i].r)
					live = append(live[:i], live[i+1:]...)
				}
			}
			dt := sim.Time(rng.Int63n(int64(10 * sim.Millisecond)))
			e.RunUntil(e.Now() + dt)
			re.RunUntil(re.Now() + dt)

			where := fmt.Sprintf("seed %d step %d", seed, step)
			if e.Events() != re.Events() || e.Pending() != re.Pending() {
				t.Fatalf("%s: engine events %d/%d pending, reference %d/%d",
					where, e.Events(), e.Pending(), re.Events(), re.Pending())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: completion order %v, reference %v", where, got, want)
			}
			if m.TotalStallTime() != ref.stallTime {
				t.Fatalf("%s: stall time %v, reference %v", where, m.TotalStallTime(), ref.stallTime)
			}
			for i, l := range m.logical {
				rl := ref.logical[i]
				if l.online != rl.online || l.busy != rl.busy || l.stolen != rl.stolen {
					t.Fatalf("%s: cpu%d online/busy/stolen %v/%v/%v, reference %v/%v/%v",
						where, i, l.online, l.busy, l.stolen, rl.online, rl.busy, rl.stolen)
				}
			}
			for _, p := range live {
				a, r := p.t, p.r
				cpu, rcpu := -1, -1
				if a.cpu != nil {
					cpu = a.cpu.ID
				}
				if r.cpu != nil {
					rcpu = r.cpu.id
				}
				if cpu != rcpu || a.rate != r.rate || a.osShare != r.osShare ||
					a.osTime != r.osTime || a.trueTime != r.trueTime || a.done != r.done {
					t.Fatalf("%s: thread %d cpu/rate/share/os/true/done %d/%v/%v/%v/%v/%v, reference %d/%v/%v/%v/%v/%v",
						where, a.id, cpu, a.rate, a.osShare, a.osTime, a.trueTime, a.done,
						rcpu, r.rate, r.osShare, r.osTime, r.trueTime, r.done)
				}
			}
		}
		completions += len(got)
	}
	if completions < 100 {
		t.Errorf("only %d jobs completed: completion order was barely compared", completions)
	}
}
