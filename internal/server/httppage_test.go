package server

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"bistro/internal/archive"
	"bistro/internal/clock"
	"bistro/internal/diskfault"
	"bistro/internal/httpfeed"
	"bistro/internal/receipts"
)

// pageScenario builds a server over a receipt store and an archive
// manifest whose view of feed F is random: each id is staged only,
// archived only (its receipt compacted away), in both (mid-handoff),
// quarantined, or absent from F. The last id is sometimes quarantined,
// so the log's head must skip it.
func pageScenario(t *testing.T, seed int64) *Server {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	st, err := receipts.Open(filepath.Join(dir, "receipts"), receipts.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	arch, err := archive.New(st, clock.NewReal(), filepath.Join(dir, "staging"), filepath.Join(dir, "arch"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	arch.FS = diskfault.NoSync(diskfault.OS())
	if err := arch.EnableManifest(); err != nil {
		t.Fatal(err)
	}

	const (
		staged = iota
		archived
		both
		quarantined
		absent
	)
	n := rng.Intn(1200)
	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	var manifest []archive.Entry
	for i := 0; i < n; i++ {
		kind := rng.Intn(5)
		if i == n-1 && seed%2 == 0 {
			kind = quarantined
		}
		feed := "F"
		if kind == archived || kind == absent {
			// The id exists, but not in F's staging window.
			feed = "other"
		}
		name := fmt.Sprintf("f%04d.csv", i)
		meta := receipts.FileMeta{Name: name, StagedPath: "F/" + name, Feeds: []string{feed},
			Size: int64(rng.Intn(1000)), Checksum: rng.Uint32(),
			Arrived: base.Add(time.Duration(i) * time.Second), DataTime: base.Add(time.Duration(rng.Intn(n+1)) * time.Minute)}
		id, err := st.RecordArrival(meta)
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case quarantined:
			if err := st.RecordQuarantine(id); err != nil {
				t.Fatal(err)
			}
		case archived, both:
			manifest = append(manifest, archive.Entry{ID: id, Name: name, StagedPath: meta.StagedPath,
				Feed: "F", Feeds: []string{"F"}, Size: meta.Size, Checksum: meta.Checksum,
				Arrived: meta.Arrived, DataTime: meta.DataTime, ArchivedAt: meta.Arrived.Add(time.Hour)})
		}
	}
	if err := arch.Manifest().Append(manifest); err != nil {
		t.Fatal(err)
	}
	return &Server{store: st, arch: arch}
}

// TestFeedHTTPPageMatchesWholeLog checks the windowed HTTP read against
// the whole-log reference it replaced: the staging window merged with
// the full manifest, cut at from and limit the way a seq-cursor page
// is. For every from in [0, head+2] and every page size, FeedHTTPPage
// must return the same entries, the same head and so the same 416
// decision (from > head+1).
func TestFeedHTTPPageMatchesWholeLog(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		s := pageScenario(t, seed)
		var se, ae []httpfeed.Entry
		for _, m := range s.store.FeedLog("F") {
			se = append(se, stagedEntry(m))
		}
		archived, _ := s.arch.Manifest().EntriesSince("F", 0, math.MaxInt)
		for _, e := range archived {
			ae = append(ae, archivedEntry(e))
		}
		ref := httpfeed.MergeLogs(se, ae)
		var refHead uint64
		if len(ref) > 0 {
			refHead = ref[len(ref)-1].Seq
		}
		for from := uint64(0); from <= refHead+2; from++ {
			start := sort.Search(len(ref), func(i int) bool { return ref[i].Seq >= from })
			for _, limit := range []int{1, 7, 512, 4096} {
				want := ref[start:]
				want = want[:min(limit, len(want))]
				got, head := s.FeedHTTPPage("F", from, limit)
				if head != refHead {
					t.Fatalf("seed %d: FeedHTTPPage(F, %d, %d) head = %d, want %d", seed, from, limit, head, refHead)
				}
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d: FeedHTTPPage(F, %d, %d) = %d entries, want %d: got %+v want %+v",
						seed, from, limit, len(got), len(want), got, want)
				}
			}
		}
	}
}

// benchFeed serves feed F over loopback HTTP from a log of n entries:
// the older half archived (receipts compacted away), the newer half in
// the staging window. Every entry's content is the same small file.
// It returns the plane's base URL.
func benchFeed(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	st, err := receipts.Open(filepath.Join(dir, "receipts"), receipts.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	arch, err := archive.New(st, clock.NewReal(), filepath.Join(dir, "staging"), filepath.Join(dir, "arch"), time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	arch.FS = diskfault.NoSync(diskfault.OS())
	if err := arch.EnableManifest(); err != nil {
		b.Fatal(err)
	}
	content := filepath.Join(dir, "content.csv")
	if err := os.WriteFile(content, []byte("a,b\n1,2\n"), 0o644); err != nil {
		b.Fatal(err)
	}
	base := time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)
	var manifest []archive.Entry
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%06d.csv", i)
		meta := receipts.FileMeta{Name: name, StagedPath: "F/" + name, Feeds: []string{"F"},
			Size: 8, Arrived: base.Add(time.Duration(i) * time.Second)}
		if i < n/2 {
			meta.Feeds = []string{"other"}
		}
		id, err := st.RecordArrival(meta)
		if err != nil {
			b.Fatal(err)
		}
		if i < n/2 {
			manifest = append(manifest, archive.Entry{ID: id, Name: name, StagedPath: meta.StagedPath,
				Feed: "F", Feeds: []string{"F"}, Size: 8, Arrived: meta.Arrived, ArchivedAt: meta.Arrived})
		}
	}
	if err := arch.Manifest().Append(manifest); err != nil {
		b.Fatal(err)
	}
	s := &Server{store: st, arch: arch}
	plane, err := httpfeed.Start(httpfeed.Options{
		Listen: "127.0.0.1:0",
		Feeds:  []string{"F"},
		Page:   s.FeedHTTPPage,
		Open:   func(string) (io.ReadCloser, error) { return os.Open(content) },
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { plane.Stop() })
	return "http://" + plane.Addr() + "/feeds/F"
}

// benchGet issues GET url b.N times over one keep-alive connection.
func benchGet(b *testing.B, url func(i int) string) {
	b.Helper()
	client := &http.Client{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url(i))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: status %d", url(i), resp.StatusCode)
		}
	}
}

// BenchmarkHTTPTailPoll polls the tail page (the last ten entries) of
// a 10k- and a 100k-entry log over loopback, as a caught-up follower
// does.
func BenchmarkHTTPTailPoll(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		url := fmt.Sprintf("%s?from=%d", benchFeed(b, n), n-9)
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			benchGet(b, func(int) string { return url })
		})
	}
}

// BenchmarkHTTPContent fetches entries' content by seq from a 10k- and
// a 100k-entry log over loopback, cycling through the newest 1000
// entries as a follower does.
func BenchmarkHTTPContent(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		base := benchFeed(b, n)
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			benchGet(b, func(i int) string { return fmt.Sprintf("%s/files/%d", base, n-i%1000) })
		})
	}
}
