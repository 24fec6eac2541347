package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"ssdcheck/internal/fleet"
	"ssdcheck/internal/simclock"
)

// The coordinator's durability layer, shared by a Group's replicas
// (replica.go) and the one-replica log of a recovered coordinator
// (recover.go): a term+index log of every decision that mutates
// deterministic state — Join, Leave, AdoptDevices, each Tick's
// heartbeat outcomes, breaker-touching Submits, a new leader's noop —
// but not Kill/Restore, which the health machine rediscovers through
// logged heartbeats. Restoring the snapshot and replaying the entries
// after it rebuilds the coordinator bit-for-bit.
//
// A log directory holds log.jsonl (one LogEntry per line, the entries
// after the snapshot), meta.json (the term, durable before any action
// under it) and snapshot.json ({index, term, state}: the state after
// replaying entries 1..index). A torn final line from a crash
// mid-append is dropped on open; every other write is an atomic
// install (installFile). Without a directory the store keeps the same
// state in memory, where it plays the disk across simulated crashes.

// walRecord is one logged coordinator decision.
type walRecord struct {
	// Type is one of "join", "leave", "adopt", "tick", "admit",
	// "outcome", or "noop" (a replicated leader's commit assertion;
	// applies no state).
	Type string `json:"type"`
	// Node is the member a join/leave concerns.
	Node string `json:"node,omitempty"`
	// Addr is the joined member's base URL ("" in-process).
	Addr string `json:"addr,omitempty"`
	// Devices are an adopt's device IDs, placement order.
	Devices []string `json:"devices,omitempty"`
	// Nodes are the members a tick/submit touched, membership order.
	Nodes []string `json:"nodes,omitempty"`
	// OK are a tick's heartbeat outcomes, aligned with Nodes.
	OK []bool `json:"ok,omitempty"`
	// Failed are a submit's RPC outcomes for the admitted subset of
	// Nodes, in membership order.
	Failed []bool `json:"failed,omitempty"`
}

// walMember is one member's bookkeeping in a snapshot.
type walMember struct {
	ID          string        `json:"id"`
	Addr        string        `json:"addr,omitempty"`
	Health      fleet.Health  `json:"health"`
	Misses      int           `json:"misses"`
	Beats       int           `json:"beats"`
	InRing      bool          `json:"in_ring"`
	Brk         BreakerState  `json:"breaker"`
	BrkFails    int           `json:"breaker_fails"`
	BrkOpenedAt simclock.Time `json:"breaker_opened_at"`
}

// walSnapshot is the coordinator's full deterministic state at a
// compaction point.
type walSnapshot struct {
	Round      int64               `json:"round"`
	Now        simclock.Time       `json:"now"`
	Seq        int64               `json:"seq"`
	Moves      int64               `json:"moves"`
	Members    []walMember         `json:"members"` // join order
	Placement  map[string]string   `json:"placement"`
	DevOrder   []string            `json:"dev_order"`
	PlaceLog   []PlacementEntry    `json:"placement_log"`
	TransLog   []NodeTransition    `json:"transition_log"`
	BreakerLog []BreakerTransition `json:"breaker_log"`
}

// LogEntry is one coordinator decision stamped with the leadership
// term it was proposed under and its 1-based position in the log.
type LogEntry struct {
	Term  int64     `json:"term"`
	Index int64     `json:"index"`
	Rec   walRecord `json:"rec"`
}

// logSnapshot is a compaction point: the state after replaying
// entries 1..Index, the last of which carries Term. State is shared
// read-only between the replicas that hold it.
type logSnapshot struct {
	Index int64        `json:"index"`
	Term  int64        `json:"term"`
	State *walSnapshot `json:"state"`
}

const (
	logFile  = "log.jsonl"
	metaFile = "meta.json"
	snapFile = "snapshot.json"

	// compactEvery: logs compact at multiples of this index, over
	// committed entries only.
	compactEvery = 256
)

// logStore is one coordinator's durable (term, snapshot, entries).
type logStore struct {
	dir     string // "" keeps everything in memory
	term    int64
	snap    logSnapshot
	entries []LogEntry // snap.Index+1 … last()
	f       *os.File   // log.jsonl append handle, directory mode only
}

// scanJSONLines splits an append-only JSONL buffer into intact lines.
// keep is the byte length of the intact prefix: a trailing line that
// fails fn — torn mid-append by a crash — and anything after it are
// excluded, so the caller can truncate the file back to keep and
// resume appending cleanly. A final line without its newline
// terminator is always dropped, even if it parses: the append's fsync
// never completed, so the record was never durable, and keeping it
// would leave the next append gluing two records onto one line.
func scanJSONLines(buf []byte, fn func(line []byte) error) (keep int64) {
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			break // unterminated tail: the write (or its fsync) was torn
		}
		if err := fn(buf[:nl]); err != nil {
			break // torn tail: drop this line and anything after
		}
		keep += int64(nl) + 1
		buf = buf[nl+1:]
	}
	return keep
}

// removeStaleTemps clears *.tmp files left by a crash between writing
// an install temporary and renaming it: a temporary is never valid
// recovery input and would otherwise accumulate forever.
func removeStaleTemps(dir string) error {
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return fmt.Errorf("cluster: scanning stale temporaries: %w", err)
	}
	for _, tmp := range tmps {
		if err := os.Remove(tmp); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("cluster: removing stale temporary %q: %w", tmp, err)
		}
	}
	return nil
}

// installFile atomically replaces dir/name with buf: write a
// temporary, fsync it, rename it over the target, and fsync the
// directory so the rename itself survives a crash.
func installFile(dir, name string, buf []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err == nil {
		_, err = f.Write(buf)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(dir); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("cluster: installing %s: %w", filepath.Join(dir, name), err)
	}
	return nil
}

// readJSON decodes a whole-file JSON document into v, reporting
// whether the file exists.
func readJSON(path string, v any) (bool, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err == nil {
		err = json.Unmarshal(buf, v)
	}
	if err != nil {
		return true, fmt.Errorf("cluster: reading %s: %w", path, err)
	}
	return true, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// open (re)loads the store from its directory, creating it if needed;
// in memory mode there is nothing to load. Stale temporaries are
// swept, a torn final line is dropped and truncated, entries the
// snapshot already covers (a crash between installing snapshot.json
// and rewriting log.jsonl) are skipped, and an index gap after the
// snapshot is an error: that is lost data, not a torn tail.
func (s *logStore) open() error {
	if s.dir == "" {
		return nil
	}
	if old := filepath.Join(s.dir, "wal.jsonl"); fileExists(old) {
		return fmt.Errorf("cluster: %s is an older coordinator log format this build cannot read; move the directory aside to start fresh", old)
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("cluster: opening log dir: %w", err)
	}
	if err := removeStaleTemps(s.dir); err != nil {
		return err
	}
	s.close()
	*s = logStore{dir: s.dir}
	var meta struct {
		Term int64 `json:"term"`
	}
	if _, err := readJSON(filepath.Join(s.dir, metaFile), &meta); err != nil {
		return err
	}
	s.term = meta.Term
	path := filepath.Join(s.dir, snapFile)
	if found, err := readJSON(path, &s.snap); err != nil {
		return err
	} else if found && (s.snap.Index <= 0 || s.snap.State == nil) {
		return fmt.Errorf("cluster: %s is not a log snapshot", path)
	}

	path = filepath.Join(s.dir, logFile)
	buf, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("cluster: reading %s: %w", path, err)
	}
	var gap error
	keep := scanJSONLines(buf, func(line []byte) error {
		var e LogEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		switch {
		case e.Index <= s.snap.Index: // already folded into the snapshot
		case e.Index == s.last()+1:
			s.entries = append(s.entries, e)
		default:
			gap = fmt.Errorf("cluster: %s: entry %d follows %d", path, e.Index, s.last())
			return gap
		}
		return nil
	})
	if gap != nil {
		return gap
	}
	return s.openAppend(keep)
}

// openAppend opens log.jsonl for appends after its first size bytes.
func (s *logStore) openAppend(size int64) error {
	f, err := os.OpenFile(filepath.Join(s.dir, logFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		if err = f.Truncate(size); err != nil {
			f.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("cluster: opening %s: %w", filepath.Join(s.dir, logFile), err)
	}
	s.f = f
	return nil
}

// close releases the append handle (crash, shutdown). The in-memory
// state stays readable.
func (s *logStore) close() {
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
}

// last is the index of the newest entry (the snapshot's when the log
// after it is empty).
func (s *logStore) last() int64 { return s.snap.Index + int64(len(s.entries)) }

// entry returns entry i, for snap.Index < i <= last().
func (s *logStore) entry(i int64) LogEntry { return s.entries[i-s.snap.Index-1] }

// termAt is the term of entry i, for snap.Index <= i <= last().
func (s *logStore) termAt(i int64) int64 {
	if i == s.snap.Index {
		return s.snap.Term
	}
	return s.entry(i).Term
}

// after returns the entries past index i (i >= snap.Index).
func (s *logStore) after(i int64) []LogEntry { return s.entries[i-s.snap.Index:] }

// setTerm makes a new term durable.
func (s *logStore) setTerm(t int64) error {
	s.term = t
	if s.dir == "" {
		return nil
	}
	return installFile(s.dir, metaFile, fmt.Appendf(nil, `{"term":%d}`, t))
}

// append makes one entry durable: encode, write, fsync.
func (s *logStore) append(e LogEntry) error {
	s.entries = append(s.entries, e)
	if s.dir == "" {
		return nil
	}
	buf, err := json.Marshal(e)
	if err == nil {
		_, err = s.f.Write(append(buf, '\n'))
	}
	if err == nil {
		err = s.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("cluster: appending entry %d: %w", e.Index, err)
	}
	return nil
}

// truncate drops every entry after index i (i >= snap.Index): a
// deposed leader's uncommitted tail.
func (s *logStore) truncate(i int64) error {
	return s.install(s.snap, s.entries[:i-s.snap.Index])
}

// install makes snap the snapshot and keep the entries after it:
// snapshot.json first, then log.jsonl, so a crash in between leaves
// only entries the new snapshot covers, which open skips.
func (s *logStore) install(snap logSnapshot, keep []LogEntry) error {
	if s.dir != "" && snap.Index != s.snap.Index {
		buf, err := json.Marshal(snap)
		if err != nil {
			return fmt.Errorf("cluster: encoding snapshot %d: %w", snap.Index, err)
		}
		if err := installFile(s.dir, snapFile, buf); err != nil {
			return err
		}
	}
	s.snap = snap
	s.entries = append([]LogEntry(nil), keep...)
	if s.dir == "" {
		return nil
	}
	var buf []byte
	for _, e := range keep {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("cluster: encoding entry %d: %w", e.Index, err)
		}
		buf = append(append(buf, line...), '\n')
	}
	if err := installFile(s.dir, logFile, buf); err != nil {
		return err
	}
	s.close()
	return s.openAppend(int64(len(buf)))
}

// compactPoint is the compaction index at or below a commit index.
func compactPoint(commit int64) int64 { return commit - commit%compactEvery }

// foldTo compacts the log at committed index at, when that is past the
// current snapshot: the previous snapshot is carried forward over the
// entries in between on a scratch coordinator (foldSnapshot). A
// snapshot is never a dump of a live coordinator, whose state can run
// ahead of its log mid-proposal or after a lost commit.
func (s *logStore) foldTo(pol Policy, at int64) error {
	n := at - s.snap.Index
	if n <= 0 {
		return nil
	}
	state, err := foldSnapshot(pol, s.snap.State, s.entries[:n])
	if err != nil {
		return err
	}
	return s.install(logSnapshot{Index: at, Term: s.termAt(at), State: state}, s.entries[n:])
}
