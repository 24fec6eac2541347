// Package simclock provides the virtual time base and deterministic
// random number generation for the simulation that underlies the whole
// reproduction.
//
// Every latency in this repository is computed on this virtual clock.
// Nothing reads the wall clock, which makes every experiment exactly
// reproducible from a seed and immune to Go runtime jitter.
package simclock

import (
	"fmt"
	"time"
)

// Time is an instant on the virtual clock, in nanoseconds since the start
// of the simulation.
type Time int64

// Microsecond is the unit simulator latencies are written in. It is an
// ordinary time.Duration so arithmetic with Time reads naturally.
const Microsecond = time.Microsecond

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Max returns the later of t and u.
func (t Time) Max(u Time) Time {
	if t > u {
		return t
	}
	return u
}

// Micros returns the instant as fractional microseconds. Intended for
// reports and debugging output.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Seconds returns the instant as fractional seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the instant with microsecond resolution.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }
