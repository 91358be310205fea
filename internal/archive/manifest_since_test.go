package archive

import (
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sinceEntry(id uint64, feed string, key time.Time) Entry {
	return Entry{
		ID:         id,
		Name:       "f",
		StagedPath: "staging/f",
		Feed:       feed,
		Feeds:      []string{feed},
		Size:       10,
		Checksum:   0xbeef,
		Arrived:    key,
		ArchivedAt: key.Add(time.Hour),
	}
}

// sinceAll reads every archived entry of feed from fromID on.
func sinceAll(m *Manifest, feed string, fromID uint64) []Entry {
	entries, _ := m.EntriesSince(feed, fromID, math.MaxInt)
	return entries
}

func sinceIDs(entries []Entry) []uint64 {
	out := make([]uint64, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

// TestEntriesSince checks the seq-indexed mirror behind the HTTP data
// plane's log reads: id ordering under out-of-order appends, cursor
// positioning, and survival across a manifest reopen.
func TestEntriesSince(t *testing.T) {
	root := t.TempDir()
	m, err := OpenManifest(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if got := sinceAll(m, "F", 0); len(got) != 0 {
		t.Fatalf("EntriesSince on empty manifest = %v", got)
	}

	// Expiry walks by data time, so archival order can invert id order;
	// the mirror must re-sort.
	if err := m.Append([]Entry{sinceEntry(5, "F", t0)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]Entry{
		sinceEntry(9, "F", t0.Add(time.Minute)),
		sinceEntry(2, "F", t0.Add(2*time.Minute)),
		sinceEntry(7, "G", t0),
	}); err != nil {
		t.Fatal(err)
	}

	if got := sinceIDs(sinceAll(m, "F", 0)); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("EntriesSince(F, 0) = %v, want [2 5 9]", got)
	}
	if got := sinceIDs(sinceAll(m, "F", 5)); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("EntriesSince(F, 5) = %v, want [5 9]", got)
	}
	if got := sinceAll(m, "F", 10); len(got) != 0 {
		t.Fatalf("EntriesSince past head = %v, want empty", got)
	}
	if got := sinceIDs(sinceAll(m, "G", 0)); len(got) != 1 || got[0] != 7 {
		t.Fatalf("EntriesSince(G, 0) = %v, want [7]", got)
	}

	// A limit bounds the copy; head is the feed's highest archived id
	// whatever the window.
	for _, c := range []struct {
		from  uint64
		limit int
		want  []uint64
	}{
		{0, 2, []uint64{2, 5}},
		{3, 1, []uint64{5}},
		{6, 4096, []uint64{9}},
		{10, 7, []uint64{}},
	} {
		page, head := m.EntriesSince("F", c.from, c.limit)
		if got := sinceIDs(page); !reflect.DeepEqual(got, c.want) || head != 9 {
			t.Fatalf("EntriesSince(F, %d, %d) = %v head %d, want %v head 9", c.from, c.limit, got, head, c.want)
		}
	}
	if page, head := m.EntriesSince("H", 0, 7); len(page) != 0 || head != 0 {
		t.Fatalf("EntriesSince on an unknown feed = %v head %d", page, head)
	}

	// Re-appending an indexed id is a no-op (idempotent expiry re-run).
	if err := m.Append([]Entry{sinceEntry(5, "F", t0)}); err != nil {
		t.Fatal(err)
	}
	if got := sinceAll(m, "F", 0); len(got) != 3 {
		t.Fatalf("duplicate append grew the mirror: %d entries", len(got))
	}

	// The mirror is rebuilt from the day files on reopen.
	m2, err := OpenManifest(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if got := sinceIDs(sinceAll(m2, "F", 0)); len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("after reopen EntriesSince(F, 0) = %v, want [2 5 9]", got)
	}
}

// TestEntriesSinceDedupsTornRetry simulates the crash window where a
// batch append is retried after its first write already reached disk:
// the day file holds duplicate (feed, id) lines, and the open-time
// scan must keep exactly one.
func TestEntriesSinceDedupsTornRetry(t *testing.T) {
	root := t.TempDir()
	m, err := OpenManifest(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]Entry{sinceEntry(3, "F", t0), sinceEntry(4, "F", t0)}); err != nil {
		t.Fatal(err)
	}

	// Duplicate the day file's first record on disk.
	var day string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".jsonl") {
			day = path
		}
		return err
	})
	if day == "" {
		t.Fatal("no day file written")
	}
	data, err := os.ReadFile(day)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(strings.TrimLeft(string(data), "\n"), "\n")
	f, err := os.OpenFile(day, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n" + first + "\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2, err := OpenManifest(nil, root)
	if err != nil {
		t.Fatal(err)
	}
	if got := sinceIDs(sinceAll(m2, "F", 0)); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("after torn retry EntriesSince(F, 0) = %v, want [3 4]", got)
	}
}
