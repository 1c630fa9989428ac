// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock from event to event. Model code runs
// either as plain event callbacks (Engine.At / Engine.After) or as
// processes: coroutines that execute imperative model logic and suspend on
// simulation primitives (Proc.Sleep, Signal.Wait, ...). Only one of them
// — the engine or exactly one process — runs at a time, so simulations are
// fully deterministic for a given seed.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration constants for virtual time arithmetic. A sim.Time is both a
// point in time and (when used as a difference) a duration.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel time later than any reachable simulation instant.
const Forever Time = 1<<63 - 1

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
	}
}

// FromSeconds converts floating-point seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }
