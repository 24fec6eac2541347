// Package fsm is the kit every named enum shares: a name table that
// gives a small integer type its String, marshal and parse methods —
// the states of the fleet, cluster and volume machines, and plain enums
// such as request ops, fault kinds and buffer types. For the state
// machines above the predictor it also holds the seq-stamped
// transition record of the fleet's device machines and the move that
// logs an edge.
package fsm

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Names is an enum type's names, indexed by value.
type Names[S ~uint8] struct {
	names   []string
	kind    string // a value outside the table renders as kind(N)
	unknown string // a name outside the table fails as: unknown "name"
}

// NewNames builds the table for an enum type whose values run from 0
// through len(names)-1.
func NewNames[S ~uint8](kind, unknown string, names ...string) Names[S] {
	return Names[S]{names: names, kind: kind, unknown: unknown}
}

// String returns s's name.
func (n Names[S]) String(s S) string {
	if int(s) < len(n.names) {
		return n.names[s]
	}
	return n.kind + "(" + strconv.Itoa(int(s)) + ")"
}

// Quote renders s's name as a JSON string: a MarshalJSON body.
func (n Names[S]) Quote(s S) ([]byte, error) {
	return []byte(`"` + n.String(s) + `"`), nil
}

// Text renders s's name: a MarshalText body.
func (n Names[S]) Text(s S) ([]byte, error) {
	return []byte(n.String(s)), nil
}

// Parse sets *s to the state called name, or leaves it and fails.
func (n Names[S]) Parse(s *S, name string) error {
	for i, nm := range n.names {
		if nm == name {
			*s = S(i)
			return nil
		}
	}
	return fmt.Errorf("%s %q", n.unknown, name)
}

// ParseJSON decodes a JSON string naming a state into *s: an
// UnmarshalJSON body. Unlike a TextUnmarshaler, which encoding/json
// skips for null, it rejects null as the empty name.
func (n Names[S]) ParseJSON(s *S, b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	return n.Parse(s, name)
}

// Transition is one edge taken in a device's state machine. Seq is the
// device's request sequence number at the transition, so with in-order
// per-device submission the log is a deterministic function of the
// request stream and the fault schedule.
type Transition[S any] struct {
	Seq   int64  `json:"seq"`
	From  S      `json:"from"`
	To    S      `json:"to"`
	Cause string `json:"cause"`
}

// Move takes a machine whose state is *cur to state to: it appends
// edge, the record of that move, to *log and sets *cur. It does
// nothing, and reports false, when *cur is already to.
func Move[S comparable, E any](cur *S, to S, log *[]E, edge E) bool {
	if *cur == to {
		return false
	}
	*log = append(*log, edge)
	*cur = to
	return true
}
