package main

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/transport"
	"bistro/internal/workload"
)

func TestTracedFSCountsAndClassifies(t *testing.T) {
	root := t.TempDir()
	rec := newRecorder(time.Now())
	fsys := newTracedFS(diskfault.OS(), root, rec)

	if err := fsys.MkdirAll(filepath.Join(root, "staging", "F"), 0o755); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(root, "staging", "F", "a")
	if err := diskfault.WriteDurable(fsys, dst, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp, err := fsys.CreateTemp(filepath.Join(root, "staging", "F"), ".tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := tmp.Sync(); err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	if err := fsys.Rename(tmp.Name(), filepath.Join(root, "staging", "F", "b")); err != nil {
		t.Fatal(err)
	}
	data, err := diskfault.ReadFile(fsys, dst)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read back %q, %v", data, err)
	}
	if err := fsys.Remove(dst); err != nil {
		t.Fatal(err)
	}

	got := fsys.snapshot()
	want := fsSnapshot{opens: 2, creates: 1, mkdirs: 1, renames: 1, removes: 1,
		fsyncs: 2, dirFsyncs: 1, writeBytes: 8, readBytes: 5}
	got.fsyncNanos = 0
	if got != want {
		t.Fatalf("counts = %+v, want %+v", got, want)
	}
	for _, s := range rec.snapshot() {
		if s.Layer != "diskfault" || s.Class != "staging" {
			t.Errorf("span %+v: want layer diskfault, class staging", s)
		}
		if s.End < s.Start || s.G == 0 {
			t.Errorf("span %+v: bad interval or goroutine", s)
		}
	}
	if fsys.class(filepath.Join(root, "receipts", "wal")) != "receipts" || fsys.class("/elsewhere/x") != "other" {
		t.Error("class does not name the storage area below root")
	}
}

// gate is a transport whose Deliver blocks until released.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func (g *gate) Deliver(sub string, f transport.File) error {
	g.entered <- struct{}{}
	<-g.release
	if f.FileID == 3 {
		return errors.New("refused")
	}
	return nil
}
func (g *gate) Notify(string, transport.File) error    { return nil }
func (g *gate) Trigger(string, string, []string) error { return nil }
func (g *gate) Ping(string) error                      { return nil }

func TestTracedTransportTimesAndTracksInflight(t *testing.T) {
	g := &gate{entered: make(chan struct{}), release: make(chan struct{})}
	rec := newRecorder(time.Now())
	tr := &tracedTransport{inner: g, rec: rec}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i-1] = tr.Deliver("sub1", transport.File{FileID: uint64(i), Size: 10})
		}(i)
	}
	<-g.entered
	<-g.entered
	close(g.release)
	wg.Wait()
	go func() { <-g.entered }()
	errs[2] = tr.Deliver("sub2", transport.File{FileID: 3, Size: 10})
	if errs[0] != nil || errs[1] != nil || errs[2] == nil {
		t.Fatalf("errors = %v, want nil, nil, refused", errs)
	}
	if tr.maxIn.Load() != 2 || tr.inflight.Load() != 0 {
		t.Fatalf("max in flight %d, in flight %d; want 2, 0", tr.maxIn.Load(), tr.inflight.Load())
	}
	ops := map[string]int{}
	for _, s := range rec.snapshot() {
		ops[s.Op]++
		if s.Layer != "transport" || s.File == 0 || s.Sub == "" || s.Bytes != 10 {
			t.Errorf("span %+v lacks file, subscriber or size", s)
		}
	}
	if ops["deliver"] != 2 || ops["deliver_failed"] != 1 {
		t.Fatalf("ops = %v", ops)
	}
}

// tinySpec is a two-feed workload small enough for a unit test.
func tinySpec(t *testing.T) *spec {
	feeds := []feedDef{{"CPU", workload.ConvCompactTS}, {"BPS", workload.ConvDatedDirs}}
	sp := &spec{
		name: "tiny", feeds: feeds, subs: []string{"sub1"}, workers: 1,
		follow: "CPU",
	}
	for _, b := range generate(rand.New(rand.NewSource(1)), 1, feeds, []int{2, 2}, 100, 200, 0, 2) {
		for _, f := range b {
			sp.timed = append(sp.timed, newItem(f, 0, 0))
		}
	}
	return sp
}

// TestSingleDepositOpCounts pins the storage operations one file costs
// on a fresh one-worker, one-subscriber server: the figures the
// benchmark's diskfault.*_per_file metrics report for this code.
func TestSingleDepositOpCounts(t *testing.T) {
	sp := tinySpec(t)
	h := newHarness(sp, t.TempDir(), true)
	h.root = filepath.Join(h.dir, "root")
	srv, _, err := h.open(h.root, true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	before := h.fs.snapshot()
	it := sp.timed[0]
	if err := srv.Deposit(it.name, payload(it)); err != nil {
		t.Fatal(err)
	}
	if !h.waitFor(10*time.Second, func() bool { return srv.Store().DeliveredCount("sub1") == 1 }) {
		t.Fatal("file not delivered")
	}
	// The delivery event follows the receipt commit; wait for it so the
	// receipt's fsync is counted.
	if !h.waitFor(10*time.Second, func() bool { h.mu.Lock(); defer h.mu.Unlock(); return len(h.events) == 1 }) {
		t.Fatal("no delivery event")
	}
	got := make(map[string]float64)
	perFile(h.fs.snapshot().sub(before), 1, int64(it.size), int64(it.size), got)
	want := map[string]float64{
		"diskfault.fsyncs_per_file":     3, // staged temp file, arrival receipt, delivery receipt
		"diskfault.dir_fsyncs_per_file": 1, // staging directory after the rename
		"diskfault.creates_per_file":    1, // staging temp file
		"diskfault.mkdirs_per_file":     2, // landing and staging directories
		"diskfault.opens_per_file":      3, // landing write, landing read, staged read for delivery
		"diskfault.renames_per_file":    1,
		"diskfault.removes_per_file":    1, // the landing copy
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	// Landing write + staged copy + WAL records; staging copy read + the
	// landing read.
	if r := got["diskfault.write_bytes_per_user_byte"]; r <= 2 {
		t.Errorf("write bytes per user byte = %v, want above 2 (landing, staging, WAL)", r)
	}
	if r := got["diskfault.read_bytes_per_delivered_byte"]; r != 2 {
		t.Errorf("read bytes per delivered byte = %v, want 2 (landing read, staged read)", r)
	}
}

// TestGateCatchesCorruptDelivery runs a tiny workload end to end, then
// overwrites one delivered file: the correctness gate must report it.
func TestGateCatchesCorruptDelivery(t *testing.T) {
	sp := tinySpec(t)
	h := newHarness(sp, t.TempDir(), true)
	if err := h.setup(); err != nil {
		t.Fatal(err)
	}
	h.measure()
	h.srv.Stop()
	attempted, failed, violations := h.check()
	if failed != 0 || len(violations) != 0 || attempted < len(sp.timed) {
		t.Fatalf("clean run: attempted %d failed %d violations %v", attempted, failed, violations)
	}
	m := h.metas[1]
	if err := os.WriteFile(filepath.Join(h.root, "in1", filepath.FromSlash(m.StagedPath)), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, failed, violations = h.check(); failed != 1 || len(violations) != 1 {
		t.Fatalf("corrupted delivery: failed %d violations %v, want one", failed, violations)
	}
	e := h.endToEnd(1)
	for _, m := range endToEndMetrics {
		if v, ok := e.values[m.name]; !ok || !(v > 0) {
			t.Errorf("end-to-end metric %s = %v, want a positive value", m.name, v)
		}
	}
}

// TestBatchRounds runs a tiny workload as two batch rounds with a run
// time that only lets the first one start: the second is dropped from
// the schedule, the subscriber copies are checked and removed between
// rounds, and a failed check of a removed copy reaches the gate.
func TestBatchRounds(t *testing.T) {
	sp := tinySpec(t)
	sp.batch = true
	for i := range sp.timed {
		sp.timed[i].group = i * 2 / len(sp.timed)
	}
	first := len(sp.timed) / 2
	h := newHarness(sp, t.TempDir(), false)
	if err := h.setup(); err != nil {
		t.Fatal(err)
	}
	h.measure()
	h.srv.Stop()
	if len(sp.timed) != first {
		t.Fatalf("%d timed files after the run, want the first round's %d", len(sp.timed), first)
	}
	if n := len(h.collected["sub1"]); n != first {
		t.Fatalf("%d copies collected, want %d", n, first)
	}
	for _, m := range h.metas {
		if _, err := os.Stat(h.stagedPath(m)); err != nil {
			t.Fatalf("staged copy of %s: %v", m.Name, err)
		}
	}
	attempted, failed, violations := h.check()
	if failed != 0 || len(violations) != 0 || attempted < first {
		t.Fatalf("clean run: attempted %d failed %d violations %v", attempted, failed, violations)
	}
	for id := range h.collected["sub1"] {
		h.collected["sub1"][id] = errors.New("crc differs")
		break
	}
	if _, failed, violations = h.check(); failed != 1 || len(violations) != 1 {
		t.Fatalf("bad collected copy: failed %d violations %v, want one", failed, violations)
	}
}

func TestSampleAndUnion(t *testing.T) {
	s := sample{4, 1, 3, 2}
	if s.pct(0.5) != 2.5 || s.pct(0) != 1 || s.pct(1) != 4 || s.max() != 4 {
		t.Fatalf("pct/max wrong: %v %v %v %v", s.pct(0.5), s.pct(0), s.pct(1), s.max())
	}
	if n := unionLen([]interval{{0, 10}, {5, 15}, {20, 25}}); n != 20 {
		t.Fatalf("unionLen = %d, want 20", n)
	}
}
