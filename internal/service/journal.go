// Durability layer for the job manager: an append-only JSON-lines
// journal (write-ahead log) under the daemon's -state-dir, fsync'd on
// every submit, queued→running transition, finalize, and eviction, so a
// crash never loses an admitted study. On startup the manager replays
// the journal (Manager.Recover): terminal jobs are restored into the
// retention ring, jobs that were queued or running at crash time are
// re-enqueued with a "recovered" event — their content-addressed
// core.StudyKey means the re-run replays from the synthesis cache, so
// recovery costs roughly one cache sweep — and entries that no longer
// validate are finalized failed with a typed *RecoveryError.
//
// The journal is compacted (rewritten as one submit record plus, for
// terminal jobs, one final record per live job) on startup after replay
// and whenever the record count since the last compaction passes
// journalCompactEvery, so the file stays proportional to the retained
// job set rather than to total traffic. Compaction uses the same
// write-sync-rename-syncdir protocol as the synthesis disk cache:
// readers (the next boot) see either the old journal or the new one,
// never a torn file.
package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// journalRecord is one line of the WAL. Op distinguishes the four
// events a job's durable life consists of:
//
//	submit  job admitted (carries the request, key, and creation time)
//	start   job moved queued → running
//	final   job reached a terminal state (carries state, error, result)
//	evict   terminal job aged or rotated out of the retention ring
//
// Replay folds records by ID and keeps the last-writer state, so
// duplicate records (possible around compaction) are harmless.
type journalRecord struct {
	Op      string        `json:"op"`
	ID      string        `json:"id"`
	Time    time.Time     `json:"t"`
	Key     string        `json:"key,omitempty"`
	Req     *StudyRequest `json:"req,omitempty"`
	Created time.Time     `json:"created,omitempty"`
	State   State         `json:"state,omitempty"`
	Error   string        `json:"error,omitempty"`
	Result  *StudyJSON    `json:"result,omitempty"`
	// Cluster mode: the node that admitted the job, restored as its
	// owner on replay. Takeover does not read the journal: the owner
	// sends its ring successor a replicate message carrying its own lease
	// (internal/cluster), and the successor re-enqueues the job under the
	// same ID once that lease expires. Older lines may also carry a
	// "lease" key, which replay ignores.
	Owner string `json:"owner,omitempty"`
}

// JournalStats is the point-in-time shape of the WAL for /metrics.
type JournalStats struct {
	Records     int   // records appended since open or last compaction
	Bytes       int64 // current file size
	Compactions int64 // rewrites since open
	Errors      int64 // append/fsync failures (durability degraded)
}

// Journal is the append-only job WAL. Safe for concurrent use; every
// append is fsync'd before returning so an acknowledged submission
// survives a crash.
type Journal struct {
	mu          sync.Mutex
	dir         string
	path        string
	f           *os.File
	records     int
	compactions int64
	errors      int64
}

// journalFile is the WAL's name inside -state-dir.
const journalFile = "journal.jsonl"

// journalCompactEvery bounds how many records accumulate between
// compactions. With ~4 records per job lifetime (submit, start, final,
// evict) this rewrites the file roughly every 256 completed jobs.
const journalCompactEvery = 1024

// OpenJournal opens (creating if missing) the job journal under dir.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: open journal: %w", err)
	}
	return &Journal{dir: dir, path: path, f: f}, nil
}

// Close releases the append handle. The journal stays valid on disk.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Stats snapshots the WAL's size and health counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{Records: j.records, Compactions: j.compactions, Errors: j.errors}
	if fi, err := os.Stat(j.path); err == nil {
		st.Bytes = fi.Size()
	}
	return st
}

// append writes one record and fsyncs. Failures are counted rather than
// propagated: the journal is a durability layer, not an admission gate,
// and a full disk must degrade to lost-on-crash, not to a dead daemon.
func (j *Journal) append(rec journalRecord) {
	blob, err := json.Marshal(rec)
	if err != nil {
		// Value fields only; Marshal cannot fail. Loud beats silent.
		panic(fmt.Sprintf("service: journal marshal: %v", err))
	}
	blob = append(blob, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		j.errors++
		return
	}
	if _, err := j.f.Write(blob); err != nil {
		j.errors++
		return
	}
	if err := j.f.Sync(); err != nil {
		j.errors++
		return
	}
	j.records++
}

// recordsSinceCompact reports appends since the last rewrite.
func (j *Journal) recordsSinceCompact() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// replay reads every decodable record in file order. A torn or corrupt
// line — the expected artifact of a crash mid-append — is skipped and
// counted, never fatal: the WAL's job is to save what it can.
func (j *Journal) replay() (recs []journalRecord, dropped int, err error) {
	blob, err := os.ReadFile(j.path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("service: read journal: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(blob))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" || rec.Op == "" {
			dropped++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, dropped, fmt.Errorf("service: scan journal: %w", err)
	}
	return recs, dropped, nil
}

// compact atomically rewrites the journal to exactly recs and swaps the
// append handle to the new file. Records appended concurrently between
// the caller's snapshot and this rewrite can be lost; replay semantics
// make that safe — a lost "start" replays as queued (re-enqueued
// either way) and a lost "final" re-runs a study that the synthesis
// cache answers for free.
func (j *Journal) compact(recs []journalRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	tmp, err := os.CreateTemp(j.dir, ".journal.tmp*")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	for _, rec := range recs {
		blob, err := json.Marshal(rec)
		if err != nil {
			panic(fmt.Sprintf("service: journal marshal: %v", err))
		}
		w.Write(blob)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// The rename itself must survive a crash: fsync the directory, the
	// same durability hole the synthesis cache plugs (see
	// synth.Cache.storeDisk).
	if err := syncDir(j.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if j.f != nil {
		j.f.Close()
	}
	j.f = f
	j.records = 0
	j.compactions++
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
