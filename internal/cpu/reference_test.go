package cpu

import (
	"math"
	"sort"

	"smistudy/internal/sim"
)

// refModel is the processor model as it was before rescheduling became
// allocation- and sort-free: threads in a map, the topology order
// re-sorted on every reschedule, runnable and finished threads sorted
// by id, and every state change applied through a mutate closure. The
// equivalence test drives it in lockstep with Model; only the data
// structures differ, so placement, rates and accounting must match bit
// for bit. Rate formulas and completionSlack are shared with Model.
type refModel struct {
	eng      *sim.Engine
	par      Params
	logical  []*refLogical
	threads  map[*refThread]struct{}
	runnable []*refThread

	stalled    bool
	stallDepth int
	stallTime  sim.Time

	lastUpdate sim.Time
	completion *sim.Event
	nextTID    int
}

type refLogical struct {
	id, phys, sib int
	online        bool
	threads       []*refThread
	busy, stolen  sim.Time
	stallDepth    int
}

type refThread struct {
	id      int
	prof    Profile
	pin     int
	job     *job
	cpu     *refLogical
	rate    float64
	osShare float64

	osTime, trueTime sim.Time
	done             float64
}

func newRefModel(e *sim.Engine, par Params) *refModel {
	m := &refModel{eng: e, par: par, threads: map[*refThread]struct{}{}}
	n := par.PhysCores
	if par.HTT {
		n *= 2
	}
	for i := 0; i < n; i++ {
		m.logical = append(m.logical, &refLogical{
			id: i, phys: i % par.PhysCores, sib: i / par.PhysCores, online: true,
		})
	}
	m.lastUpdate = e.Now()
	return m
}

func (m *refModel) SetOnline(id int, online bool) {
	if m.logical[id].online == online {
		return
	}
	m.reconfigure(func() { m.logical[id].online = online })
}

func (m *refModel) OnlineFirst(n int) {
	order := m.schedOrder()
	m.reconfigure(func() {
		for i, l := range order {
			l.online = i < n
		}
	})
}

func (m *refModel) schedOrder() []*refLogical {
	order := make([]*refLogical, len(m.logical))
	copy(order, m.logical)
	sort.Slice(order, func(i, j int) bool {
		if order[i].sib != order[j].sib {
			return order[i].sib < order[j].sib
		}
		return order[i].phys < order[j].phys
	})
	return order
}

func (m *refModel) NewThread(prof Profile) *refThread {
	m.nextTID++
	t := &refThread{id: m.nextTID, prof: prof, pin: -1}
	m.threads[t] = struct{}{}
	return t
}

func (m *refModel) Pin(t *refThread, id int) { m.reconfigure(func() { t.pin = id }) }
func (m *refModel) Unpin(t *refThread)       { m.reconfigure(func() { t.pin = -1 }) }

func (m *refModel) Remove(t *refThread) {
	m.reconfigure(func() {
		t.job = nil
		delete(m.threads, t)
	})
}

func (m *refModel) SetProfile(t *refThread, prof Profile) {
	m.reconfigure(func() { t.prof = prof })
}

func (m *refModel) StartCompute(t *refThread, ops float64, onDone func()) {
	if ops <= 0 {
		m.eng.At(m.eng.Now(), onDone)
		return
	}
	m.reconfigure(func() { t.job = &job{remaining: ops, total: ops, onDone: onDone} })
}

func (m *refModel) Stall() {
	m.reconfigure(func() {
		m.stallDepth++
		m.stalled = true
	})
}

func (m *refModel) Unstall() {
	m.reconfigure(func() {
		if m.stallDepth > 0 {
			m.stallDepth--
		}
		m.stalled = m.stallDepth > 0
	})
}

func (m *refModel) StallCPU(id int) { m.reconfigure(func() { m.logical[id].stallDepth++ }) }

func (m *refModel) UnstallCPU(id int) {
	m.reconfigure(func() {
		if m.logical[id].stallDepth > 0 {
			m.logical[id].stallDepth--
		}
	})
}

func (m *refModel) reconfigure(mutate func()) {
	m.advance()
	if mutate != nil {
		mutate()
	}
	m.finishJobs()
	m.assign()
	m.rates()
	m.scheduleCompletion()
}

func (m *refModel) advance() {
	now := m.eng.Now()
	dt := now - m.lastUpdate
	m.lastUpdate = now
	if dt <= 0 {
		return
	}
	fdt := float64(dt) / float64(sim.Second)
	if m.stalled {
		m.stallTime += dt
	}
	for _, t := range m.runnable {
		if t.job == nil || t.cpu == nil {
			continue
		}
		t.job.remaining -= t.rate * fdt
		t.done += t.rate * fdt
		t.osTime += sim.Time(float64(dt) * t.osShare)
		if !m.stalled {
			t.trueTime += sim.Time(float64(dt) * t.osShare)
		}
	}
	if !m.stalled {
		for _, l := range m.logical {
			if !l.online || len(l.threads) == 0 {
				continue
			}
			if l.stallDepth > 0 {
				l.stolen += dt
				continue
			}
			l.busy += dt
		}
	}
}

func (m *refModel) finishJobs() {
	var finished []*refThread
	for t := range m.threads {
		if t.job != nil && t.job.remaining <= completionSlack(t.job.total) {
			finished = append(finished, t)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].id < finished[j].id })
	for _, t := range finished {
		done := t.job.onDone
		t.job = nil
		if done != nil {
			m.eng.At(m.eng.Now(), done)
		}
	}
}

func (m *refModel) assign() {
	var online []*refLogical
	for _, l := range m.schedOrder() {
		l.threads = l.threads[:0]
		if l.online {
			online = append(online, l)
		}
	}
	m.runnable = m.runnable[:0]
	for t := range m.threads {
		t.cpu = nil
		t.rate = 0
		t.osShare = 0
		if t.job != nil {
			m.runnable = append(m.runnable, t)
		}
	}
	sort.Slice(m.runnable, func(i, j int) bool { return m.runnable[i].id < m.runnable[j].id })
	if len(online) == 0 {
		return
	}
	var unpinned []*refThread
	for _, t := range m.runnable {
		if t.pin >= 0 && m.logical[t.pin].online {
			l := m.logical[t.pin]
			l.threads = append(l.threads, t)
			t.cpu = l
			continue
		}
		unpinned = append(unpinned, t)
	}
	for _, t := range unpinned {
		best := online[0]
		for _, l := range online[1:] {
			if len(l.threads) < len(best.threads) {
				best = l
			}
		}
		best.threads = append(best.threads, t)
		t.cpu = best
	}
}

func (m *refModel) rates() {
	if m.stalled {
		for _, t := range m.runnable {
			t.rate = 0
			if t.cpu != nil {
				if t.cpu.stallDepth > 0 {
					t.osShare = 0
				} else {
					t.osShare = 1 / float64(len(t.cpu.threads))
				}
			}
		}
		return
	}
	for _, t := range m.runnable {
		if t.cpu == nil {
			continue
		}
		l := t.cpu
		if l.stallDepth > 0 {
			t.rate = 0
			t.osShare = 0
			continue
		}
		sib := m.sibling(l)
		sibBusy := sib != nil && sib.online && len(sib.threads) > 0
		miss := t.prof.MissRate
		if sibBusy {
			miss = t.prof.sharedMiss()
		}
		n := float64(len(l.threads))
		t.osShare = 1 / n
		if !sibBusy {
			t.rate = m.par.BaseHz * soloOpsPerCycle(t.prof.CPI, miss, m.par.MissPenalty) / n
			continue
		}
		u := soloOpsPerCycle(t.prof.CPI, miss, m.par.MissPenalty)
		us := m.avgOpsPerCycle(sib)
		conceded := 0.5
		if l.phys < len(m.par.SMTShares) {
			if s := m.par.SMTShares[l.phys]; l.sib == 0 {
				conceded = 1 - s
			} else {
				conceded = s
			}
		}
		opsPerCycle := m.par.SMTEfficiency * u * (1 - us*conceded)
		if opsPerCycle > u {
			opsPerCycle = u
		}
		t.rate = m.par.BaseHz * opsPerCycle / n
	}
	if m.par.MemBandwidth > 0 {
		demand := 0.0
		for _, t := range m.runnable {
			demand += t.rate * m.effMiss(t)
		}
		if demand > m.par.MemBandwidth {
			scale := m.par.MemBandwidth / demand
			for _, t := range m.runnable {
				if m.effMiss(t) > 1e-6 {
					t.rate *= scale
				}
			}
		}
	}
}

func (m *refModel) effMiss(t *refThread) float64 {
	if t.prof.MemMissRate > 0 {
		return t.prof.MemMissRate
	}
	if t.cpu == nil {
		return t.prof.MissRate
	}
	sib := m.sibling(t.cpu)
	if sib != nil && sib.online && len(sib.threads) > 0 {
		return t.prof.sharedMiss()
	}
	return t.prof.MissRate
}

func (m *refModel) avgOpsPerCycle(l *refLogical) float64 {
	if len(l.threads) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range l.threads {
		sum += soloOpsPerCycle(t.prof.CPI, t.prof.sharedMiss(), m.par.MissPenalty)
	}
	return sum / float64(len(l.threads))
}

func (m *refModel) sibling(l *refLogical) *refLogical {
	if !m.par.HTT {
		return nil
	}
	if l.sib == 0 {
		return m.logical[l.id+m.par.PhysCores]
	}
	return m.logical[l.id-m.par.PhysCores]
}

func (m *refModel) scheduleCompletion() {
	if m.completion != nil {
		m.eng.Cancel(m.completion)
		m.completion = nil
	}
	best := sim.Forever
	for _, t := range m.runnable {
		if t.job == nil || t.rate <= 0 {
			continue
		}
		sec := t.job.remaining / t.rate
		at := m.eng.Now() + sim.Time(math.Ceil(sec*float64(sim.Second)))
		if at <= m.eng.Now() {
			at = m.eng.Now() + 1
		}
		if at < best {
			best = at
		}
	}
	if best != sim.Forever {
		m.completion = m.eng.At(best, func() {
			m.completion = nil
			m.reconfigure(nil)
		})
	}
}
