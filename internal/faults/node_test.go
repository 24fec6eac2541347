package faults

import (
	"testing"
	"time"
)

func TestNodeFaultsAtWindow(t *testing.T) {
	f, err := NewNodeFaults(NodePlan{Schedules: []NodeSchedule{
		{Kind: HeartbeatLoss, Node: "n1", At: 3, Rounds: 2},
		{Kind: Partition, Node: "n2", At: 5, Rounds: 1},
		{Kind: SlowNode, Node: "n3", At: 2, Rounds: 3, Delay: 100 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}

	type state struct {
		drop1, drop2, part2 bool
		delay3              time.Duration
	}
	want := map[int64]state{
		1: {},
		2: {delay3: 100 * time.Millisecond},
		3: {drop1: true, delay3: 100 * time.Millisecond},
		4: {drop1: true, delay3: 100 * time.Millisecond},
		5: {drop2: true, part2: true},
		6: {},
	}
	for r := int64(1); r <= 6; r++ {
		f.BeginRound()
		if f.Round() != r {
			t.Fatalf("round = %d, want %d", f.Round(), r)
		}
		w := want[r]
		if got := f.DropHeartbeat("n1"); got != w.drop1 {
			t.Errorf("round %d: DropHeartbeat(n1) = %v, want %v", r, got, w.drop1)
		}
		if got := f.DropHeartbeat("n2"); got != w.drop2 {
			t.Errorf("round %d: DropHeartbeat(n2) = %v, want %v", r, got, w.drop2)
		}
		if got := f.Partitioned("n2"); got != w.part2 {
			t.Errorf("round %d: Partitioned(n2) = %v, want %v", r, got, w.part2)
		}
		if got := f.Delay("n3"); got != w.delay3 {
			t.Errorf("round %d: Delay(n3) = %v, want %v", r, got, w.delay3)
		}
		// Untargeted node never faults.
		if f.DropHeartbeat("n9") || f.Partitioned("n9") || f.Delay("n9") != 0 {
			t.Errorf("round %d: untargeted node faulted", r)
		}
	}
}

// TestNodeFaultsWildcard: an empty Node targets every member.
func TestNodeFaultsWildcard(t *testing.T) {
	f, err := NewNodeFaults(NodePlan{Schedules: []NodeSchedule{
		{Kind: Partition, At: 1, Rounds: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	f.BeginRound()
	for _, n := range []string{"a", "b", "c"} {
		if !f.Partitioned(n) {
			t.Errorf("node %s not partitioned by wildcard schedule", n)
		}
	}
	f.BeginRound()
	if f.Partitioned("a") {
		t.Error("window outlived Rounds")
	}
}

// TestNodeFaultsProbDeterminism: the firing sequence is a pure function
// of the seed, and re-arms after each window.
func TestNodeFaultsProbDeterminism(t *testing.T) {
	run := func() []bool {
		f, err := NewNodeFaults(NodePlan{Seed: 99, Schedules: []NodeSchedule{
			{Kind: HeartbeatLoss, Node: "n0", Prob: 0.3, Rounds: 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		var out []bool
		for r := 0; r < 200; r++ {
			f.BeginRound()
			out = append(out, f.DropHeartbeat("n0"))
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d diverges across identical runs", i+1)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("prob schedule fired %d/%d rounds; expected a mix", fired, len(a))
	}
}

func TestNodePlanValidate(t *testing.T) {
	cases := []NodeSchedule{
		{Kind: 99, At: 1},                                 // unknown kind
		{Kind: HeartbeatLoss},                             // no trigger
		{Kind: HeartbeatLoss, At: 2, Prob: 0.5},           // both triggers
		{Kind: Partition, At: -1},                         // negative At
		{Kind: Partition, Prob: 1.5},                      // Prob out of range
		{Kind: SlowNode, At: 1, Rounds: -2},               // negative window
		{Kind: SlowNode, At: 1, Delay: -time.Millisecond}, // negative delay
	}
	for i, s := range cases {
		if err := (NodePlan{Schedules: []NodeSchedule{s}}).Validate(); err == nil {
			t.Errorf("case %d (%+v) accepted", i, s)
		}
	}
	if err := (NodePlan{}).Validate(); err != nil {
		t.Errorf("empty plan rejected: %v", err)
	}
}

func TestNodeKindString(t *testing.T) {
	for k, want := range map[NodeKind]string{
		HeartbeatLoss:   "heartbeat-loss",
		Partition:       "partition",
		SlowNode:        "slow-node",
		RPCDrop:         "rpc-drop",
		RPCDuplicate:    "rpc-duplicate",
		RPCDelay:        "rpc-delay",
		RPCTimeout:      "rpc-timeout",
		LeaderCrash:     "leader-crash",
		LeaderPartition: "leader-partition",
		DuelingLeader:   "dueling-leader",
		NodeKind(10):    "node-kind(10)",
		NodeKind(77):    "node-kind(77)",
	} {
		if got := k.String(); got != want {
			t.Errorf("NodeKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// Round returns the current round number (0 before the first
// BeginRound).
func (f *NodeFaults) Round() int64 { return f.round }
