package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	e := New(1)
	var wakeups []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * Millisecond)
			wakeups = append(wakeups, p.Now())
		}
	})
	e.Run()
	want := []Time{10 * Millisecond, 20 * Millisecond, 30 * Millisecond}
	if len(wakeups) != len(want) {
		t.Fatalf("wakeups = %v, want %v", wakeups, want)
	}
	for i := range want {
		if wakeups[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	var order []string
	e.Go("a", func(p *Proc) {
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(20)
		order = append(order, "b20")
	})
	e.Run()
	if len(order) != 3 || order[0] != "a10" || order[1] != "b20" || order[2] != "a30" {
		t.Fatalf("interleaving wrong: %v", order)
	}
}

func TestProcWaitWake(t *testing.T) {
	e := New(1)
	var got any
	var wake func(any)
	e.Go("waiter", func(p *Proc) {
		var wait func() any
		wake, wait = p.Wait()
		got = wait()
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(5)
		wake("hello")
	})
	e.Run()
	if got != "hello" {
		t.Fatalf("wait returned %v, want hello", got)
	}
}

func TestProcWaitDoubleWakeIgnored(t *testing.T) {
	e := New(1)
	resumed := 0
	e.Go("waiter", func(p *Proc) {
		wake, wait := p.Wait()
		e.After(5, func() { wake(1) })
		e.After(6, func() { wake(2) })
		wait()
		resumed++
		p.Sleep(100)
	})
	e.Run()
	if resumed != 1 {
		t.Fatalf("resumed = %d, want 1", resumed)
	}
	if e.Now() != 105 {
		t.Fatalf("clock = %v, want 105 (sleep not disturbed by second wake)", e.Now())
	}
}

// TestWakerMatchesWait checks that Waker+Park is a drop-in for a
// Wait whose wake is called with nil: the same events fire in the same
// order, interleaved identically with other same-instant work.
func TestWakerMatchesWait(t *testing.T) {
	run := func(useWaker bool) ([]string, uint64) {
		e := New(1)
		var log []string
		for i := 0; i < 3; i++ {
			name := string(rune('a' + i))
			e.Go(name, func(p *Proc) {
				for k := 0; k < 4; k++ {
					// A completion callback fires after a delay shared
					// with other processes, next to an unrelated event
					// at the same instant.
					d := Time(1 + (i+k)%2)
					e.After(d, func() { log = append(log, name+"-other") })
					if useWaker {
						wake := p.Waker()
						e.After(d, wake)
						p.Park()
					} else {
						wake, wait := p.Wait()
						e.After(d, func() { wake(nil) })
						wait()
					}
					log = append(log, fmt.Sprintf("%s@%d", name, p.Now()))
				}
			})
		}
		e.Run()
		return log, e.Events()
	}
	want, wantEvents := run(false)
	got, gotEvents := run(true)
	if !slices.Equal(got, want) || gotEvents != wantEvents {
		t.Fatalf("Waker run: %d events %v\nWait run:  %d events %v", gotEvents, got, wantEvents, want)
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := New(1)
	var sig Signal
	woken := 0
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) {
			sig.Wait(p)
			woken++
		})
	}
	e.At(50, func() { sig.Broadcast(e) })
	e.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
	if sig.Len() != 0 {
		t.Fatalf("signal still has %d waiters", sig.Len())
	}
}

func TestShutdownReleasesParkedProcs(t *testing.T) {
	e := New(1)
	var sig Signal
	cleaned := false
	e.Go("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		sig.Wait(p) // never broadcast
	})
	e.RunUntil(100)
	if len(e.procs) != 1 {
		t.Fatalf("procs = %d, want 1 parked", len(e.procs))
	}
	e.Shutdown()
	if len(e.procs) != 0 {
		t.Fatalf("procs = %d after Shutdown, want 0", len(e.procs))
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
}

// A process spawned but never started must not outlive Shutdown: its
// body never runs, it leaves the process table, and its coroutine is
// released.
func TestShutdownReleasesUnstartedProcs(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	ran := false
	for i := 0; i < 50; i++ {
		e := New(1)
		e.Go("unstarted", func(p *Proc) { ran = true })
		if n := e.Shutdown(); n != 0 {
			t.Fatalf("Shutdown = %d, want 0 (only parked procs count)", n)
		}
		if len(e.procs) != 0 {
			t.Fatalf("procs = %d after Shutdown, want 0", len(e.procs))
		}
	}
	if ran {
		t.Fatal("body of a never-started process ran")
	}
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > base; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d after Shutdown, want %d", n, base)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New(1)
	e.Go("bomb", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate to Run")
		}
	}()
	e.Run()
}

func TestProcIdentity(t *testing.T) {
	e := New(1)
	var p1, p2 *Proc
	p1 = e.Go("first", func(p *Proc) {})
	p2 = e.Go("second", func(p *Proc) {})
	if p1.Name() != "first" || p2.Name() != "second" {
		t.Fatal("names wrong")
	}
	if p1.ID() == p2.ID() {
		t.Fatal("ids not unique")
	}
	if p1.Engine() != e {
		t.Fatal("engine accessor wrong")
	}
	e.Run()
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []int {
		e := New(7)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			e.Go("p", func(p *Proc) {
				d := Time(e.Rand().Int63n(100))
				p.Sleep(d)
				order = append(order, i)
			})
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic process order at %d", i)
		}
	}
}
