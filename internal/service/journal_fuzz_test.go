package service

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalReplay writes arbitrary bytes as the job journal and
// replays them the way a restarting daemon does: OpenJournal,
// NewManager, Recover. Whatever the file holds — torn tails, records
// with no submit, states no writer produces, duplicate IDs, stale
// content addresses, requests that no longer validate — recovery must
// not panic or fail, must leave every job queued or terminal with the
// queue holding exactly the re-enqueued ones, and must compact the
// journal into a file that replays to the same job table.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		first := recoverTable(t, dir)
		if second := recoverTable(t, dir); !reflect.DeepEqual(first, second) {
			t.Fatalf("the compacted journal replays to %v, the original to %v", second, first)
		}
	})
}

// recoverTable replays the journal in dir into a fresh manager, checks
// the recovered table, and returns each job's state by ID.
func recoverTable(t *testing.T, dir string) map[string]State {
	t.Helper()
	jn, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	man := NewManager(Config{Workers: 1, Journal: jn})
	stats, err := man.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	table := make(map[string]State, len(man.jobs))
	queued := 0
	for id, j := range man.jobs {
		st := j.State()
		if st == StateQueued {
			queued++
		} else if !st.Terminal() {
			t.Fatalf("job %s recovered in state %q", id, st)
		}
		table[id] = st
	}
	if queued != stats.Recovered || queued != len(man.queue) {
		t.Fatalf("%d queued jobs, %d recovered (%+v), %d in the queue", queued, stats.Recovered, stats, len(man.queue))
	}
	return table
}
