package cluster

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// logTestEntries are term-1 entries, as a one-replica log writes them.
func logTestEntries() []LogEntry {
	recs := []walRecord{
		{Type: "join", Node: "node-0"},
		{Type: "join", Node: "node-1", Addr: "http://127.0.0.1:9999"},
		{Type: "adopt", Devices: []string{"dev-a", "dev-d"}},
		{Type: "tick", Nodes: []string{"node-0", "node-1"}, OK: []bool{true, false}},
	}
	out := make([]LogEntry, len(recs))
	for i, rec := range recs {
		out[i] = LogEntry{Term: 1, Index: int64(i) + 1, Rec: rec}
	}
	return out
}

// replicaTestEntries are entries as a replica that lived through a
// failover holds them: a noop per leadership, and two terms.
func replicaTestEntries() []LogEntry {
	out := append([]LogEntry{{Term: 1, Index: 1, Rec: walRecord{Type: "noop"}}}, logTestEntries()...)
	for i := range out[1:] {
		out[i+1].Index++
	}
	out = append(out, LogEntry{Term: 2, Index: 6, Rec: walRecord{Type: "noop"}},
		LogEntry{Term: 2, Index: 7, Rec: walRecord{Type: "tick", Nodes: []string{"node-0", "node-1"}, OK: []bool{true, true}}})
	return out
}

// openTestLog opens (or reopens) a log directory.
func openTestLog(t *testing.T, dir string) *logStore {
	t.Helper()
	s := &logStore{dir: dir}
	if err := s.open(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	return s
}

func appendAll(t *testing.T, s *logStore, es []LogEntry) {
	t.Helper()
	for _, e := range es {
		if err := s.append(e); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALAppendReopen: entries appended before a close come back on
// reopen, in order, with no snapshot, and the reopened handle appends
// past them rather than over them.
func TestWALAppendReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir)
	if s.last() != 0 || s.snap.State != nil {
		t.Fatalf("fresh log: last=%d snap=%+v", s.last(), s.snap)
	}
	es := logTestEntries()
	appendAll(t, s, es[:3])
	if err := s.setTerm(1); err != nil {
		t.Fatal(err)
	}
	s.close()

	s = openTestLog(t, dir)
	if s.term != 1 || s.snap.State != nil || !reflect.DeepEqual(s.entries, es[:3]) {
		t.Fatalf("reopened: term=%d snap=%+v entries=%+v, want term 1 and %+v", s.term, s.snap, s.entries, es[:3])
	}
	appendAll(t, s, es[3:])
	s.close()
	if s = openTestLog(t, dir); !reflect.DeepEqual(s.entries, es) {
		t.Fatalf("entries after post-reopen append = %+v, want %+v", s.entries, es)
	}
}

// TestWALCompact: a compaction installs the fold of the compacted
// entries as the snapshot and leaves only the entries after it in
// log.jsonl; later appends build on top, and a reopen restores both.
func TestWALCompact(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir)
	es := logTestEntries()
	appendAll(t, s, es)
	if err := s.foldTo(Policy{}, 3); err != nil {
		t.Fatal(err)
	}
	want, err := foldSnapshot(Policy{}, nil, es[:3])
	if err != nil {
		t.Fatal(err)
	}
	if s.snap.Index != 3 || s.snap.Term != 1 || !reflect.DeepEqual(s.snap.State, want) {
		t.Fatalf("snapshot %+v, want index 3 term 1 state %+v", s.snap, want)
	}
	if len(want.Placement) != 2 || len(want.Members) != 2 {
		t.Fatalf("folded state missed the joins or the adopt: %+v", want)
	}
	if buf, err := os.ReadFile(filepath.Join(dir, logFile)); err != nil || bytes.Count(buf, []byte("\n")) != 1 {
		t.Fatalf("log.jsonl after compaction: %q (%v), want entry 4 alone", buf, err)
	}
	post := LogEntry{Term: 1, Index: 5, Rec: walRecord{Type: "tick", Nodes: []string{"node-0"}, OK: []bool{true}}}
	appendAll(t, s, []LogEntry{post})
	s.close()

	s = openTestLog(t, dir)
	if s.snap.Index != 3 || !reflect.DeepEqual(s.snap.State, want) {
		t.Fatalf("recovered snapshot %+v, want index 3 state %+v", s.snap, want)
	}
	if wantTail := []LogEntry{es[3], post}; !reflect.DeepEqual(s.entries, wantTail) {
		t.Fatalf("post-compaction entries = %+v, want %+v", s.entries, wantTail)
	}
}

// TestWALStaleTempCleanup: a crash between writing an install
// temporary and renaming it strands the temporary; the next open
// removes every one of them rather than ever mistaking one for (or
// renaming it over) real state.
func TestWALStaleTempCleanup(t *testing.T) {
	dir := t.TempDir()
	s := openTestLog(t, dir)
	es := logTestEntries()
	appendAll(t, s, es)
	if err := s.setTerm(1); err != nil {
		t.Fatal(err)
	}
	s.close()
	for name, body := range map[string]string{
		metaFile + ".tmp": `{"term":9`,
		snapFile + ".tmp": `{"index":99,"term":9,"state":{"round":`,
		logFile + ".tmp":  `{"term":9,"index":1,"rec":{}}` + "\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s = openTestLog(t, dir)
	if s.term != 1 || s.snap.State != nil || !reflect.DeepEqual(s.entries, es) {
		t.Fatalf("stale temporaries leaked into state: term=%d snap=%+v entries=%+v", s.term, s.snap, s.entries)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("stale temporaries survived reopen: %v", tmps)
	}
}

// TestWALTornTailEveryOffset: property test — truncate log.jsonl at
// every byte offset inside its final record, for a one-replica log
// that has compacted and for a replica's multi-term log. Every cut
// must recover exactly the complete prefix, and an append after
// recovery must land on a clean line boundary.
func TestWALTornTailEveryOffset(t *testing.T) {
	for _, tc := range []struct {
		name    string
		entries []LogEntry
		foldAt  int64
	}{
		{"one-replica", logTestEntries(), 2},
		{"replica", replicaTestEntries(), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestLog(t, dir)
			appendAll(t, s, tc.entries)
			if tc.foldAt > 0 {
				if err := s.foldTo(Policy{}, tc.foldAt); err != nil {
					t.Fatal(err)
				}
			}
			s.close()
			path := filepath.Join(dir, logFile)
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lastStart := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
			prefix := tc.entries[tc.foldAt : len(tc.entries)-1]
			final := tc.entries[len(tc.entries)-1]

			for cut := lastStart; cut < len(full); cut++ {
				if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				s := openTestLog(t, dir)
				// Every cut — including the one where only the newline
				// is missing — drops the final entry: its fsync never
				// completed, so it was never durable.
				if s.snap.Index != tc.foldAt || !reflect.DeepEqual(s.entries, prefix) {
					t.Fatalf("cut at byte %d: snapshot %d entries %+v, want %d and %+v", cut, s.snap.Index, s.entries, tc.foldAt, prefix)
				}
				appendAll(t, s, []LogEntry{final})
				s.close()
				s = openTestLog(t, dir)
				if want := append(append([]LogEntry(nil), prefix...), final); !reflect.DeepEqual(s.entries, want) {
					t.Fatalf("cut at byte %d: entries after re-append = %+v, want %+v", cut, s.entries, want)
				}
				s.close()
			}
		})
	}
}

// TestLogStoreSnapshotBeforeRewrite: a crash after snapshot.json is
// installed but before log.jsonl is rewritten leaves entries the
// snapshot already covers; recovery skips them and rebuilds exactly
// the coordinator a clean compaction recovers.
func TestLogStoreSnapshotBeforeRewrite(t *testing.T) {
	recovered := func(dir string) []byte {
		c, err := RecoverCoordinator(Policy{}, nil, nil, dir, func(id, addr string) (*Node, error) {
			return &Node{id: id, addr: addr}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		buf, err := json.Marshal(c.snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	es := logTestEntries()
	clean, torn := t.TempDir(), t.TempDir()
	var stale []byte
	for _, dir := range []string{clean, torn} {
		s := openTestLog(t, dir)
		appendAll(t, s, es)
		stale, _ = os.ReadFile(filepath.Join(dir, logFile))
		if err := s.foldTo(Policy{}, 3); err != nil {
			t.Fatal(err)
		}
		s.close()
	}
	if err := os.WriteFile(filepath.Join(torn, logFile), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTestLog(t, torn)
	if s.snap.Index != 3 || !reflect.DeepEqual(s.entries, es[3:]) {
		t.Fatalf("snapshot %d entries %+v, want 3 and %+v", s.snap.Index, s.entries, es[3:])
	}
	s.close()
	if a, b := recovered(clean), recovered(torn); !bytes.Equal(a, b) {
		t.Fatalf("recovered state differs:\nclean:\n%s\ntorn:\n%s", a, b)
	}
}

// TestLogStoreGapRejected: an index gap after the snapshot is lost
// data, not a torn tail; open refuses the directory.
func TestLogStoreGapRejected(t *testing.T) {
	es := logTestEntries()
	for _, tc := range []struct {
		name   string
		foldAt int64
		keep   []LogEntry
	}{
		{"no snapshot", 0, []LogEntry{es[0], es[1], es[3]}},
		{"after snapshot", 2, []LogEntry{es[3]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestLog(t, dir)
			appendAll(t, s, es)
			if tc.foldAt > 0 {
				if err := s.foldTo(Policy{}, tc.foldAt); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.install(s.snap, tc.keep); err != nil {
				t.Fatal(err)
			}
			s.close()
			if err := (&logStore{dir: dir}).open(); err == nil || !strings.Contains(err.Error(), "follows") {
				t.Fatalf("open over a gap: %v, want an index-gap error", err)
			}
		})
	}
}

// TestRecoverRefusesOlderFormat: a directory written by the older
// standalone format (wal.jsonl + a bare state snapshot.json) is
// refused with an error naming the file, neither started fresh nor
// misread as a log snapshot.
func TestRecoverRefusesOlderFormat(t *testing.T) {
	dir := t.TempDir()
	old := `{"round":4,"now":0,"seq":17,"moves":2,"members":[],"placement":{},"dev_order":[],"placement_log":[],"transition_log":[],"breaker_log":[]}`
	if err := os.WriteFile(filepath.Join(dir, snapFile), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverCoordinator(Policy{}, nil, nil, dir, nil); err == nil || !strings.Contains(err.Error(), "not a log snapshot") {
		t.Fatalf("bare state snapshot.json: %v, want a refusal", err)
	}
	wal := filepath.Join(dir, "wal.jsonl")
	if err := os.WriteFile(wal, []byte(`{"type":"join","node":"node-0"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverCoordinator(Policy{}, nil, nil, dir, nil); err == nil || !strings.Contains(err.Error(), wal) {
		t.Fatalf("older-format directory: %v, want an error naming %s", err, wal)
	}
	if fileExists(filepath.Join(dir, logFile)) || fileExists(filepath.Join(dir, metaFile)) {
		t.Fatal("refused directory was written to")
	}
}
