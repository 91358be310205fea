package receipts

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func logIDs(files []FileMeta) []uint64 {
	ids := make([]uint64, len(files))
	for i, f := range files {
		ids[i] = f.ID
	}
	return ids
}

// TestFeedLog checks the consumable-log view the HTTP data plane
// reads: id order, expired receipts retained (their bytes live on in
// the archive), quarantined receipts withdrawn.
func TestFeedLog(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	id1, _ := s.RecordArrival(meta("a", "bps"))
	id2, _ := s.RecordArrival(meta("b", "bps", "pps"))
	id3, _ := s.RecordArrival(meta("c", "bps"))
	id4, _ := s.RecordArrival(meta("d", "pps"))

	if err := s.RecordExpire(id1); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordQuarantine(id3); err != nil {
		t.Fatal(err)
	}
	if !s.IsExpired(id1) || s.IsExpired(id2) {
		t.Fatal("IsExpired disagrees with recorded expiry")
	}

	log := s.FeedLog("bps")
	want := []uint64{id1, id2}
	if len(log) != len(want) {
		t.Fatalf("FeedLog(bps) has %d entries, want %d", len(log), len(want))
	}
	for i, id := range want {
		if log[i].ID != id {
			t.Fatalf("FeedLog(bps)[%d].ID = %d, want %d", i, log[i].ID, id)
		}
	}
	if pps := s.FeedLog("pps"); len(pps) != 2 || pps[0].ID != id2 || pps[1].ID != id4 {
		t.Fatalf("FeedLog(pps) = %v", pps)
	}
	if empty := s.FeedLog("nope"); len(empty) != 0 {
		t.Fatalf("FeedLog(nope) = %v, want empty", empty)
	}
}

// TestFeedLogPage checks the windowed read: a page starts at the first
// id >= from, holds at most limit receipts, skips quarantined ids, and
// reports the highest non-quarantined id as head even when the tail id
// is quarantined.
func TestFeedLogPage(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, err := s.RecordArrival(meta("f", "bps")); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{4, 10} {
		if err := s.RecordQuarantine(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		from  uint64
		limit int
		want  []uint64
	}{
		{0, 3, []uint64{1, 2, 3}},
		{3, 2, []uint64{3, 5}},
		{4, 2, []uint64{5, 6}},
		{9, 5, []uint64{9}},
		{10, 5, []uint64{}},
		{11, 1, []uint64{}},
		{0, math.MaxInt, []uint64{1, 2, 3, 5, 6, 7, 8, 9}},
	} {
		page, head := s.FeedLogPage("bps", c.from, c.limit)
		if got := logIDs(page); !reflect.DeepEqual(got, c.want) || head != 9 {
			t.Fatalf("FeedLogPage(bps, %d, %d) = %v head %d, want %v head 9", c.from, c.limit, got, head, c.want)
		}
	}
	if got := logIDs(s.FeedLog("bps")); !reflect.DeepEqual(got, []uint64{1, 2, 3, 5, 6, 7, 8, 9}) {
		t.Fatalf("FeedLog(bps) = %v", got)
	}
	if page, head := s.FeedLogPage("nope", 0, 5); len(page) != 0 || head != 0 {
		t.Fatalf("FeedLogPage(nope) = %v head %d", page, head)
	}
}

// TestOutOfOrderIDs covers ids that apply out of id order. Ids are
// assigned before the group-commit batch, so two committers can land
// in one batch in swapped order, and WAL replay then applies them
// swapped; older checkpoints hold a feed's ids in arrival order. Every
// read must still come out in id order.
func TestOutOfOrderIDs(t *testing.T) {
	dir := t.TempDir()
	// The window is long and the batch size two, so the second commit
	// is what flushes the batch.
	opts := Options{GroupCommit: GroupCommitConfig{MaxBatch: 2, MaxDelay: time.Minute}}
	s := openTest(t, dir, opts)
	s.mu.Lock()
	lo := s.nextID
	s.nextID += 2
	s.mu.Unlock()
	arrival := func(id uint64) []op {
		f := meta("f", "bps")
		f.ID = id
		return []op{{kind: recArrival, file: f}}
	}
	done := make(chan error, 1)
	go func() { done <- s.commit(arrival(lo + 1)) }()
	for leading := false; !leading; {
		s.gc.mu.Lock()
		leading = s.gc.wake != nil
		s.gc.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	if err := s.commit(arrival(lo)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	want := []uint64{lo, lo + 1}
	check := func(s *Store, when string) {
		t.Helper()
		if got := logIDs(s.FeedLog("bps")); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: FeedLog = %v, want %v", when, got, want)
		}
		if got := logIDs(s.FilesInFeed("bps")); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: FilesInFeed = %v, want %v", when, got, want)
		}
		if page, head := s.FeedLogPage("bps", lo, 1); len(page) != 1 || page[0].ID != lo || head != lo+1 {
			t.Fatalf("%s: FeedLogPage(bps, %d, 1) = %v head %d", when, lo, logIDs(page), head)
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, opts)
	check(s, "after WAL replay")

	// A checkpoint written in arrival order loads in id order.
	s.mu.Lock()
	s.feedFiles["bps"] = []uint64{lo + 1, lo}
	s.mu.Unlock()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openTest(t, dir, opts)
	defer s.Close()
	check(s, "after checkpoint load")

	// Recovery replays a WAL the checkpoint already covers when a crash
	// fell between the checkpoint's rename and the WAL reset.
	s.mu.Lock()
	s.applyLocked(arrival(lo)[0])
	s.mu.Unlock()
	check(s, "after a replayed arrival")
}

func TestDeliveredCount(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	id1, _ := s.RecordArrival(meta("a", "bps"))
	id2, _ := s.RecordArrival(meta("b", "bps"))
	if s.DeliveredCount("sub") != 0 {
		t.Fatal("fresh subscriber has deliveries")
	}
	if err := s.RecordDelivery(id1, "sub", t0); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordDelivery(id2, "sub", t0); err != nil {
		t.Fatal(err)
	}
	if n := s.DeliveredCount("sub"); n != 2 {
		t.Fatalf("DeliveredCount = %d, want 2", n)
	}
}

// TestGroupIntrospection covers the read-only group surfaces the
// status endpoint and channel engine use: the sorted group list and
// the copied member table.
func TestGroupIntrospection(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{NoSync: true})
	defer s.Close()
	if g := s.Groups(); len(g) != 0 {
		t.Fatalf("Groups on empty store = %v", g)
	}
	if m := s.GroupMembers("nope"); m != nil {
		t.Fatalf("GroupMembers(nope) = %v, want nil", m)
	}

	if err := s.RecordGroupCursor("zeta", "m1", 0, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordGroupCursor("alpha", "m1", 0, t0); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordGroupAttach("alpha", "m2", t0); err != nil {
		t.Fatal(err)
	}

	groups := s.Groups()
	if len(groups) != 2 || groups[0] != "alpha" || groups[1] != "zeta" {
		t.Fatalf("Groups = %v, want [alpha zeta]", groups)
	}
	members := s.GroupMembers("alpha")
	if len(members) != 2 {
		t.Fatalf("GroupMembers(alpha) has %d members, want 2", len(members))
	}
	if !members["m2"].Attached {
		t.Fatal("attached member not reported attached")
	}
	if members["m1"].Attached {
		t.Fatal("cursor-frozen member reported attached")
	}
}

// pageSink keeps benchmarked pages live.
var pageSink []FileMeta

// BenchmarkFeedLogPage reads the tail page a caught-up poller asks for
// (the last ten receipts, limit 512) from a feed of 10k and 100k
// receipts. A windowed read should cost about the same at both sizes.
func BenchmarkFeedLogPage(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		s, err := Open(b.TempDir(), Options{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := s.RecordArrival(meta(fmt.Sprintf("f%06d.csv", i), "bps")); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			from := uint64(n - 9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pageSink, _ = s.FeedLogPage("bps", from, 512)
			}
			if len(pageSink) != 10 {
				b.Fatalf("tail page has %d receipts, want 10", len(pageSink))
			}
		})
		s.Close()
	}
}
