package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// placeholderNode resolves a logged member to a bare handle: enough
// for a fold, which moves no device.
func placeholderNode(id, addr string) (*Node, error) { return &Node{id: id, addr: addr}, nil }

// replayLog folds entries into a scratch coordinator restored from snap
// (nil: empty), through the same applyRecord every coordinator's state
// takes.
func replayLog(pol Policy, snap *walSnapshot, entries []LogEntry) (*Coordinator, error) {
	c, err := restoreCoordinator(pol, nil, nil, snap, placeholderNode)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		if err := c.applyRecord(e.Rec); err != nil {
			return nil, fmt.Errorf("replaying entry %d: %w", e.Index, err)
		}
	}
	return c, nil
}

// snapshotOf captures a coordinator's deterministic state.
func snapshotOf(c *Coordinator) *walSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

// compactAt compacts s at index at: the fold of its snapshot and
// entries up to at becomes the new snapshot, installed with the
// entries after it. Returns the folded state.
func compactAt(t *testing.T, s *logStore, at int64) *walSnapshot {
	t.Helper()
	n := at - s.snap.Index
	c, err := replayLog(Policy{}, s.snap.State, s.entries[:n])
	if err != nil {
		t.Fatal(err)
	}
	state := snapshotOf(c)
	if err := s.install(logSnapshot{Index: at, Term: s.termAt(at), State: state}, s.entries[n:]); err != nil {
		t.Fatal(err)
	}
	return state
}

// foldDiff checks a log's coordinator against a fresh fold of the log:
// its snapshot plus every entry up to the applied index — the commit
// index, except on a leader whose takeover noop has not yet reached a
// quorum. The caller holds whatever lock guards the log (the group's,
// for a replica).
func foldDiff(l *foldedLog) error {
	if l.applied < l.st.snap.Index {
		return fmt.Errorf("applied %d is below the snapshot at %d", l.applied, l.st.snap.Index)
	}
	fold, err := replayLog(l.coord.pol, l.st.snap.State, l.st.entries[:l.applied-l.st.snap.Index])
	if err != nil {
		return err
	}
	live, err := json.Marshal(snapshotOf(l.coord))
	if err != nil {
		return err
	}
	want, err := json.Marshal(snapshotOf(fold))
	if err != nil {
		return err
	}
	if !bytes.Equal(live, want) {
		return fmt.Errorf("live coordinator is not the fold of its log[..%d]\nlive:\n%s\nfold:\n%s", l.applied, live, want)
	}
	return nil
}

// requireFolded checks a single coordinator against its one-replica
// log.
func requireFolded(t *testing.T, c *Coordinator) {
	t.Helper()
	l, ok := c.rep.(*soloLog)
	if !ok {
		t.Fatalf("coordinator proposes to a %T, not a one-replica log", c.rep)
	}
	if l.applied != l.commit {
		t.Fatalf("one-replica log applied %d of %d committed entries", l.applied, l.commit)
	}
	if err := foldDiff(&l.foldedLog); err != nil {
		t.Fatal(err)
	}
}

// requireGroupFolded checks every live replica's coordinator — the
// leader's and each standby — against its own log.
func requireGroupFolded(t *testing.T, g *Group) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, id := range g.order {
		if r := g.replicas[id]; !r.crashed {
			if err := foldDiff(&r.foldedLog); err != nil {
				t.Fatalf("replica %s: %v", id, err)
			}
		}
	}
}

// tickFolded runs one heartbeat round and checks the coordinator is
// still the fold of its log.
func tickFolded(t *testing.T, c *Coordinator) {
	t.Helper()
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	requireFolded(t, c)
}

// groupTick runs one group round and checks every replica is still
// the fold of its log.
func groupTick(t *testing.T, g *Group) {
	t.Helper()
	if err := g.Tick(); err != nil {
		t.Fatal(err)
	}
	requireGroupFolded(t, g)
}

// TestGroupLostCommitFolds: a leader cut off for one round loses that
// round's commit but keeps its lease; the round commits with the next
// proposal, and the leader must apply it then rather than skip it —
// its beat counts and health machines equal the fold of its log.
func TestGroupLostCommitFolds(t *testing.T) {
	g := testGroup(t, GroupConfig{})
	for i := 0; i < 5; i++ {
		groupTick(t, g)
	}
	if err := g.Partition("rep-0"); err != nil {
		t.Fatal(err)
	}
	if err := g.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := g.Heal("rep-0"); err != nil {
		t.Fatal(err)
	}
	groupTick(t, g)
	if g.LeaderID() != "rep-0" {
		t.Fatalf("leader %q, want rep-0 to have kept its lease", g.LeaderID())
	}
	for _, st := range g.Leader().Nodes() {
		if st.Beats != 7 {
			t.Fatalf("leader holds %+v after 7 committed rounds, want 7 beats", st)
		}
	}
	requireLogsIdentical(t, g)
}
