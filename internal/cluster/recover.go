package cluster

import (
	"fmt"

	"ssdcheck/internal/obs"
)

// Crash recovery: a coordinator opened through RecoverCoordinator runs
// on a one-replica log (log.go) in a directory. Every decision is
// appended as a term-1 entry, commits once fsynced, and applies through
// applyRecord — the path every coordinator's state takes, live, standby
// or recovering — so on restart the snapshot is restored, the entries
// after it apply the same way, and the coordinator resumes where the
// dead one stopped: subsequent log lines are byte-identical to an
// uninterrupted run. NewCoordinator runs the same log in memory.

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

// foldedLog is a log store plus the coordinator its committed entries
// apply into, in index order — shared by a Group replica and the
// one-replica soloLog.
type foldedLog struct {
	st      *logStore
	coord   *Coordinator
	commit  int64 // highest committed index
	applied int64 // highest index applied into coord
}

// applyUpTo applies entries applied+1..idx into the coordinator, whose
// lock the caller holds. Once a committed multiple of compactEvery is
// applied, the coordinator's state — the fold of entries 1..applied —
// becomes the log's snapshot.
func (l *foldedLog) applyUpTo(idx int64) error {
	for l.applied < idx {
		l.applied++
		if err := l.coord.applyRecord(l.st.entry(l.applied).Rec); err != nil {
			return fmt.Errorf("cluster: applying entry %d: %w", l.applied, err)
		}
		if l.applied%compactEvery == 0 && l.applied <= l.commit {
			snap := logSnapshot{Index: l.applied, Term: l.st.termAt(l.applied), State: l.coord.snapshotLocked()}
			if err := l.st.install(snap, l.st.after(l.applied)); err != nil {
				return err
			}
		}
	}
	return nil
}

// catchUp is applyUpTo for a caller outside the coordinator's lock: a
// follower applying its leader's commit, a standby being rebuilt, a
// recovery.
func (l *foldedLog) catchUp(idx int64) error {
	l.coord.mu.Lock()
	defer l.coord.mu.Unlock()
	return l.applyUpTo(idx)
}

// soloLog is a single coordinator's log: one replica, so every entry
// is term 1 and commits once it is appended (fsynced, with a
// directory).
type soloLog struct{ foldedLog }

func (l *soloLog) propose(rec walRecord) error {
	if err := l.st.append(LogEntry{Term: 1, Index: l.st.last() + 1, Rec: rec}); err != nil {
		return err
	}
	l.commit = l.st.last()
	return l.applyUpTo(l.commit)
}

// snapshotLocked captures the coordinator's full deterministic state.
func (c *Coordinator) snapshotLocked() *walSnapshot {
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

// restoreCoordinator builds a coordinator restored from a compaction
// point (nil: none yet), resolving its members through resolve.
func restoreCoordinator(pol Policy, tr *rpcClient, reg *obs.Registry, snap *walSnapshot, resolve NodeResolver) (*Coordinator, error) {
	c, err := NewCoordinator(pol, tr, reg)
	if err != nil {
		return nil, err
	}
	c.resolver = resolve
	if snap == nil {
		return c, nil
	}
	c.round = snap.Round
	c.now = snap.Now
	c.seq = snap.Seq
	c.gRound.Set(c.round)
	c.cMoves.Add(snap.Moves)
	for _, wm := range snap.Members {
		n, err := resolve(wm.ID, wm.Addr)
		if err != nil {
			return nil, fmt.Errorf("cluster: recovering member %q: %w", wm.ID, err)
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
	return c, nil
}

// applyRecord applies one committed record: the only way coordinator
// state changes, on a live leader, a standby, a recovering coordinator
// and a log-less one alike. Called with the coordinator's lock held,
// from its log's applyUpTo. It moves no device — the entry point that
// proposed the record does, after the apply (commitLocked).
func (c *Coordinator) applyRecord(rec walRecord) error {
	switch rec.Type {
	case "join":
		return c.applyJoin(rec)
	case "leave":
		return c.applyLeave(rec.Node)
	case "adopt":
		for _, dev := range rec.Devices {
			target, ok := c.ring.Owner(dev)
			if !ok {
				return ErrNoNodes
			}
			c.placeLocked(dev, "", target, "bootstrap")
		}
	case "tick":
		c.applyTick(rec)
	case "admit":
		for _, id := range rec.Nodes {
			if mb := c.members[id]; mb != nil {
				c.breakerAdmitLocked(mb)
			}
		}
	case "outcome":
		for i, id := range rec.Nodes {
			if mb := c.members[id]; mb != nil && i < len(rec.Failed) {
				c.breakerOutcomeLocked(mb, rec.Failed[i])
			}
		}
	case "noop":
		// A new leader's commit assertion: replicated for its index,
		// applies nothing.
	default:
		return fmt.Errorf("cluster: unknown log record type %q", rec.Type)
	}
	return nil
}

// RecoverCoordinator opens (or creates) a durable coordinator on the
// one-replica log in dir. An empty directory yields a fresh
// coordinator that logs from its first decision; an existing one
// restores its snapshot, applies the entries after it, and resumes.
// resolve turns logged membership back into node handles —
// RemoteResolver suffices when every member is a real process;
// in-process members need the caller's live handles. A torn tail
// record (crash mid-append) is dropped and truncated. tr is as for
// NewCoordinator; a fault plan on it must be fresh: it is advanced to
// the recovered round, so it resumes in lockstep with the coordinator.
func RecoverCoordinator(pol Policy, tr *rpcClient, reg *obs.Registry, dir string, resolve NodeResolver) (*Coordinator, error) {
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
		c, err = restoreCoordinator(pol, tr, reg, st.snap.State, resolve)
	}
	if err == nil {
		l := &soloLog{foldedLog{st: st, coord: c, commit: st.last(), applied: st.snap.Index}}
		c.rep = l
		err = l.catchUp(l.commit)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	for i := int64(0); i < c.round; i++ {
		c.tr.BeginRound()
	}
	return c, nil
}

// Checkpoint compacts a coordinator's one-replica log at its newest
// entry, snapshotting the live coordinator — the fold of every entry
// its log holds. Errors on a Group replica's coordinator.
func (c *Coordinator) Checkpoint() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.rep.(*soloLog)
	if !ok {
		return fmt.Errorf("cluster: coordinator has no local log")
	}
	at := l.st.last()
	if at == l.st.snap.Index {
		return nil
	}
	return l.st.install(logSnapshot{Index: at, Term: l.st.termAt(at), State: c.snapshotLocked()}, nil)
}
