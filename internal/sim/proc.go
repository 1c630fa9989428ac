//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

type procState int

const (
	procNew procState = iota
	procRunning
	procParked
	procDone
)

type killSentinel struct{}

// Proc is a simulation process: a coroutine that runs model code and
// suspends on simulation primitives. Exactly one process runs at a time.
// The engine resumes a process with a direct coroutine switch (iter.Pull's
// next) and the process hands control back by yielding, so there is no
// scheduler round trip and execution order is deterministic.
type Proc struct {
	eng   *Engine
	id    int
	name  string
	state procState
	next  func() (struct{}, bool) // engine -> process switch
	stop  func()                  // ends the coroutine; parked code sees a kill
	yield func(struct{}) bool     // process -> engine switch
	val   any                     // value handed to the process by transfer
	pval  any                     // panic value propagated from the process
	dead  bool                    // killed or finished

	// wakeFn resumes the process with no value. Built once so the
	// Sleep hot path does not allocate a closure per call.
	wakeFn func()
	// wakeSoonFn schedules wakeFn as an immediate event; built on the
	// first Waker call.
	wakeSoonFn func()
}

// Go spawns a new process executing fn. The process starts at the current
// simulation time, after previously scheduled events for this instant.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.nextProcID++
	p := &Proc{
		eng:   e,
		id:    e.nextProcID,
		name:  name,
		state: procNew,
	}
	p.wakeFn = func() { e.transfer(p, nil) }
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			if _, kill := r.(killSentinel); kill {
				r = nil
			}
			p.state = procDone
			p.dead = true
			p.pval = r
		}()
		fn(p)
	})
	e.procs[p] = struct{}{}
	e.At(e.now, p.wakeFn)
	return p
}

// transfer resumes p with value v and returns once p parks or finishes.
// Must run on the engine side (inside an event callback).
func (e *Engine) transfer(p *Proc, v any) {
	if p.dead {
		return
	}
	p.state = procRunning
	p.val = v
	p.next()
	if p.state == procDone {
		delete(e.procs, p)
		if p.pval != nil {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, p.pval))
		}
	}
}

// park suspends the process until the engine resumes it, returning the
// value passed to the wake-up. Runs inside the process.
func (p *Proc) park() any {
	p.state = procParked
	if !p.yield(struct{}{}) {
		panic(killSentinel{})
	}
	v := p.val
	p.val = nil
	return v
}

// kill terminates a parked or never-started process. Must run on the
// engine side.
func (p *Proc) kill() {
	p.stop()
	p.dead = true
	delete(p.eng.procs, p)
}

// Name reports the process name given to Go.
func (p *Proc) Name() string { return p.name }

// ID reports the unique process id.
func (p *Proc) ID() int { return p.id }

// Engine reports the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulation time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Sleep suspends the process for duration d of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	e := p.eng
	e.At(e.now+d, p.wakeFn)
	p.park()
}

// Wait suspends the process until another component calls the returned
// wake function. The wake function schedules the resumption as an
// immediate event and may be called from engine or process context; extra
// calls are ignored.
func (p *Proc) Wait() (wake func(v any), wait func() any) {
	woken := false
	wake = func(v any) {
		if woken {
			return
		}
		woken = true
		p.eng.At(p.eng.now, func() { p.eng.transfer(p, v) })
	}
	wait = func() any { return p.park() }
	return wake, wait
}

// Waker returns a function that schedules p's resumption, with no
// value, as an immediate event: the same event Wait's wake(nil)
// schedules. The function is built once per process, so a process that
// repeatedly blocks on one completion at a time (Waker, then Park)
// allocates nothing per block. Unlike Wait's wake it does not ignore
// extra calls: call it exactly once per Park.
func (p *Proc) Waker() func() {
	if p.wakeSoonFn == nil {
		p.wakeSoonFn = func() { p.eng.At(p.eng.now, p.wakeFn) }
	}
	return p.wakeSoonFn
}

// Park suspends the process until a wake-up scheduled through Waker
// fires.
func (p *Proc) Park() { p.park() }

// Signal is a broadcast wake-up point for processes, similar to a
// condition variable. The zero value is ready to use.
type Signal struct {
	waiters []*Proc
}

// Wait parks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Broadcast wakes all waiting processes (as immediate events, in wait
// order). Safe to call from engine or process context.
func (s *Signal) Broadcast(e *Engine) {
	for _, p := range s.waiters {
		e.At(e.now, p.wakeFn)
	}
	// At only schedules, so no waiter can re-enter Wait during the loop
	// and the backing array is safe to reuse for the next generation.
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Len reports the number of parked waiters.
func (s *Signal) Len() int { return len(s.waiters) }
