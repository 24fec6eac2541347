package cluster

import (
	"fmt"

	"ssdcheck/internal/obs"
)

// Crash recovery: a coordinator opened through RecoverCoordinator runs
// on a one-replica log (log.go). Every decision is appended as a term-1
// entry and commits once fsynced; on restart the snapshot is restored
// and the entries after it replay through applyRecord — exactly the
// path a Group standby takes — so the coordinator resumes where the
// dead one stopped, and subsequent log lines are byte-identical to an
// uninterrupted run.

// NodeResolver turns a logged membership record back into a node
// handle during recovery. addr is the base URL the node joined with
// ("" for in-process members).
type NodeResolver func(id, addr string) (*Node, error)

// RemoteResolver rebuilds remote nodes from their logged addresses —
// sufficient for a coordinator whose members are all real processes.
// In-process members (no address) need a caller-supplied resolver
// that returns the live *Node handles.
func RemoteResolver(id, addr string) (*Node, error) {
	if addr == "" {
		return nil, fmt.Errorf("cluster: recovering in-process node %q needs a resolver", id)
	}
	return NewRemoteNode(id, addr)
}

// soloLog is the durable single coordinator's proposer: a log with one
// replica, so every entry is term 1 and committed once it is on disk.
type soloLog struct {
	st  *logStore
	pol Policy
}

func (l *soloLog) propose(rec walRecord) error {
	if err := l.st.append(LogEntry{Term: 1, Index: l.st.last() + 1, Rec: rec}); err != nil {
		return err
	}
	return l.st.foldTo(l.pol, compactPoint(l.st.last()))
}

// proposeLocked makes one decision durable before the mutation it
// describes is applied: a replicated coordinator's record reaches a
// quorum of its group (replica.go), a recovered coordinator's is
// fsynced to its one-replica log, and a log-less coordinator proceeds
// immediately. A no-op during replay — the record is already durable
// in whichever log is being replayed.
func (c *Coordinator) proposeLocked(rec walRecord) error {
	if c.replaying || c.rep == nil {
		return nil
	}
	return c.rep.propose(rec)
}

// snapshot captures the coordinator's full deterministic state.
func (c *Coordinator) snapshot() *walSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := &walSnapshot{
		Round:      c.round,
		Now:        c.now,
		Seq:        c.seq,
		Moves:      c.cMoves.Value(),
		Placement:  make(map[string]string, len(c.placement)),
		DevOrder:   append([]string(nil), c.devOrder...),
		PlaceLog:   append([]PlacementEntry(nil), c.placelog...),
		TransLog:   append([]NodeTransition(nil), c.translog...),
		BreakerLog: append([]BreakerTransition(nil), c.breakerlog...),
	}
	for d, n := range c.placement {
		snap.Placement[d] = n
	}
	for _, id := range c.order {
		mb := c.members[id]
		snap.Members = append(snap.Members, walMember{
			ID:          id,
			Addr:        mb.node.Addr(),
			Health:      mb.health,
			Misses:      mb.misses,
			Beats:       mb.beats,
			InRing:      c.ring.Has(id),
			Brk:         mb.brk,
			BrkFails:    mb.brkFails,
			BrkOpenedAt: mb.brkOpenedAt,
		})
	}
	return snap
}

// restoreSnapshot rebuilds the coordinator's state from a compaction
// point (nil: none yet). Runs before any records replay, on a freshly
// built (empty) coordinator.
func (c *Coordinator) restoreSnapshot(snap *walSnapshot, resolve NodeResolver) error {
	if snap == nil {
		return nil
	}
	c.round = snap.Round
	c.now = snap.Now
	c.seq = snap.Seq
	c.gRound.Set(c.round)
	c.cMoves.Add(snap.Moves)
	for _, wm := range snap.Members {
		n, err := resolve(wm.ID, wm.Addr)
		if err != nil {
			return fmt.Errorf("cluster: recovering member %q: %w", wm.ID, err)
		}
		c.members[wm.ID] = &member{
			node:        n,
			health:      wm.Health,
			misses:      wm.Misses,
			beats:       wm.Beats,
			brk:         wm.Brk,
			brkFails:    wm.BrkFails,
			brkOpenedAt: wm.BrkOpenedAt,
		}
		c.order = append(c.order, wm.ID)
		if wm.InRing {
			c.ring.Add(wm.ID)
		}
		c.healthGaugeLocked(wm.ID).Set(int64(wm.Health))
		c.breakerGaugeLocked(wm.ID)
	}
	for d, n := range snap.Placement {
		c.placement[d] = n
	}
	c.devOrder = append(c.devOrder, snap.DevOrder...)
	c.placelog = append(c.placelog, snap.PlaceLog...)
	c.translog = append(c.translog, snap.TransLog...)
	c.breakerlog = append(c.breakerlog, snap.BreakerLog...)
	return nil
}

// applyRecord replays one logged record. Join/Leave/Adopt re-run the
// real entry points (the replaying flag suppresses re-proposals and
// physical device moves); tick and breaker records feed their logged
// outcomes straight into the state machines.
func (c *Coordinator) applyRecord(rec walRecord, resolve NodeResolver) error {
	switch rec.Type {
	case "join":
		n, err := resolve(rec.Node, rec.Addr)
		if err != nil {
			return fmt.Errorf("cluster: recovering member %q: %w", rec.Node, err)
		}
		return c.Join(n)
	case "leave":
		return c.Leave(rec.Node)
	case "adopt":
		return c.AdoptDevices(nil, rec.Devices)
	case "tick":
		return c.replayTick(rec)
	case "admit":
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, id := range rec.Nodes {
			if mb := c.members[id]; mb != nil {
				c.breakerAdmitLocked(mb)
			}
		}
		return nil
	case "outcome":
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, id := range rec.Nodes {
			mb := c.members[id]
			if mb == nil || i >= len(rec.Failed) {
				continue
			}
			c.breakerOutcomeLocked(mb, rec.Failed[i])
		}
		return nil
	case "noop":
		// A new leader's commit assertion: replicated for its index,
		// applies nothing.
		return nil
	default:
		return fmt.Errorf("cluster: unknown log record type %q", rec.Type)
	}
}

// replayTick re-runs one heartbeat round from its logged outcomes: no
// transport fan-out — the recorded beat/miss decisions drive the
// health machines — but the clock, round counter, and the transport's
// fault plan all advance, so a fault plan resumes in lockstep.
func (c *Coordinator) replayTick(rec walRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.round++
	c.now = c.now.Add(c.pol.HeartbeatInterval)
	c.gRound.Set(c.round)
	if ra, ok := c.tr.(roundAdvancer); ok {
		ra.BeginRound()
	}
	for i, id := range rec.Nodes {
		mb := c.members[id]
		if mb == nil || i >= len(rec.OK) {
			continue
		}
		if rec.OK[i] {
			if err := c.noteBeatLocked(mb); err != nil {
				return err
			}
		} else if err := c.noteMissLocked(mb); err != nil {
			return err
		}
	}
	return nil
}

// replayLog builds a replaying coordinator restored from snap (nil:
// empty) and advanced over entries.
func replayLog(pol Policy, tr Transport, reg *obs.Registry, snap *walSnapshot, entries []LogEntry, resolve NodeResolver) (*Coordinator, error) {
	c, err := NewCoordinator(pol, tr, reg)
	if err != nil {
		return nil, err
	}
	c.replaying = true
	if err := c.restoreSnapshot(snap, resolve); err != nil {
		return nil, err
	}
	for _, e := range entries {
		if err := c.applyRecord(e.Rec, resolve); err != nil {
			return nil, fmt.Errorf("cluster: replaying entry %d: %w", e.Index, err)
		}
	}
	return c, nil
}

// foldSnapshot carries a snapshot forward over entries on a scratch
// coordinator. Replay moves no devices, so placeholder handles stand
// in for the members.
func foldSnapshot(pol Policy, base *walSnapshot, entries []LogEntry) (*walSnapshot, error) {
	c, err := replayLog(pol, nil, nil, base, entries, func(id, addr string) (*Node, error) {
		return &Node{id: id, addr: addr}, nil
	})
	if err != nil {
		return nil, err
	}
	return c.snapshot(), nil
}

// RecoverCoordinator opens (or creates) a durable coordinator on the
// one-replica log in dir. An empty directory yields a fresh
// coordinator that logs from its first decision; an existing one
// restores its snapshot, replays the entries after it, and resumes.
// resolve turns logged membership back into node handles —
// RemoteResolver suffices when every member is a real process;
// in-process members need the caller's live handles. A torn tail
// record (crash mid-append) is dropped and truncated.
func RecoverCoordinator(pol Policy, tr Transport, reg *obs.Registry, dir string, resolve NodeResolver) (*Coordinator, error) {
	if resolve == nil {
		resolve = RemoteResolver
	}
	st := &logStore{dir: dir}
	err := st.open()
	if err == nil && st.term == 0 {
		err = st.setTerm(1)
	}
	var c *Coordinator
	if err == nil {
		c, err = replayLog(pol, tr, reg, st.snap.State, st.entries, resolve)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	c.mu.Lock()
	c.replaying = false
	c.rep = &soloLog{st: st, pol: c.pol}
	c.mu.Unlock()
	return c, nil
}

// Checkpoint compacts a recovered coordinator's log at its newest
// entry. Errors on a coordinator without a one-replica log.
func (c *Coordinator) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.rep.(*soloLog)
	if !ok {
		return fmt.Errorf("cluster: coordinator has no local log")
	}
	return l.st.foldTo(c.pol, l.st.last())
}
