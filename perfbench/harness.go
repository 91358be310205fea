package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/diskfault"
	"bistro/internal/receipts"
	"bistro/internal/server"
	"bistro/internal/transport"
)

// deposit is the generator's record of one file.
type deposit struct {
	it              item
	due, start, ack time.Time
	err             error
	crc             uint32
	history         bool
}

// delivered is one EvDelivered event, in emission order.
type delivered struct {
	sub string
	id  uint64
	at  time.Time
}

// harness drives one workload against a single-node server.
type harness struct {
	sp    *spec
	dir   string
	trace bool
	rec   *recorder

	srv   *server.Server
	fs    *tracedFS
	trans *tracedTransport
	root  string

	mu        sync.Mutex
	deposits  map[string]*deposit
	events    []delivered
	retries   int
	failedEvs int
	// collected[sub][id] is the content check of a subscriber copy that
	// collect removed.
	collected map[string]map[uint64]error

	setups    []float64 // seconds
	startCall time.Time // final server's Start call
	t0        time.Time // timed phase start (due times count from here)
	follower  *follower
	metas     map[uint64]receipts.FileMeta
	histHead  uint64
}

func newHarness(sp *spec, dir string, trace bool) *harness {
	h := &harness{sp: sp, dir: dir, trace: trace, deposits: make(map[string]*deposit)}
	if trace {
		h.rec = newRecorder(time.Now())
	}
	return h
}

func (h *harness) onEvent(ev delivery.Event) {
	now := time.Now()
	h.mu.Lock()
	switch ev.Kind {
	case delivery.EvDelivered:
		h.events = append(h.events, delivered{sub: ev.Subscriber, id: ev.FileID, at: now})
	case delivery.EvRetryScheduled:
		h.retries++
	case delivery.EvDeliveryFailed, delivery.EvReceiptWriteFailed:
		h.failedEvs++
	}
	h.mu.Unlock()
}

// open builds and starts a server on root. The seams are wrapped only
// in traced runs; the untraced run uses the real filesystem.
func (h *harness) open(root string, withSubs, noSync bool) (*server.Server, time.Duration, error) {
	cfg, err := config.Parse(configText(h.sp, withSubs))
	if err != nil {
		return nil, 0, err
	}
	local := transport.NewLocalDir()
	for _, sub := range h.sp.subs {
		local.Register(sub, root)
	}
	opts := server.Options{
		Config: cfg, Root: root, NoSync: noSync,
		ScanInterval: -1, ExpiryInterval: -1, MonitorInterval: -1,
		Transport: local, OnEvent: h.onEvent,
	}
	if h.trace && !noSync {
		h.fs = newTracedFS(diskfault.OS(), root, h.rec)
		h.trans = &tracedTransport{inner: local, rec: h.rec}
		opts.FS, opts.Transport = h.fs, h.trans
	}
	start := time.Now()
	srv, err := server.New(opts)
	if err != nil {
		return nil, 0, err
	}
	h.startCall = time.Now()
	if err := srv.Start(); err != nil {
		srv.Stop()
		return nil, 0, err
	}
	return srv, time.Since(start), nil
}

// buildHistory deposits the spec's history on a server without fsyncs
// (untimed) and stops it, leaving the run's starting state on disk.
func (h *harness) buildHistory(root string) error {
	if len(h.sp.history) == 0 {
		return nil
	}
	srv, _, err := h.open(root, h.sp.historySubs, true)
	if err != nil {
		return err
	}
	t0 := time.Now()
	h.generate(srv, h.sp.history, t0, true)
	if h.sp.historySubs {
		ok := h.waitFor(120*time.Second, func() bool { return h.deliveredAll(srv, h.sp.history) })
		if !ok {
			srv.Stop()
			return fmt.Errorf("history delivery did not finish")
		}
	}
	srv.Stop()
	for _, it := range h.sp.history {
		if d := h.deposits[it.name]; d.err != nil {
			return fmt.Errorf("history deposit %s: %w", it.name, d.err)
		}
	}
	return nil
}

// setupReps is how often setup runs to take setup_s as a median: a
// start on fresh state takes about a millisecond and varies from start
// to start by more than the bound; one that replays a history takes a
// few hundred.
func (h *harness) setupReps() int {
	if len(h.sp.history) == 0 {
		return 101
	}
	return 5
}

// setup starts the measured server setupReps times on the run's
// starting state and keeps the last one running. Fresh-state workloads
// start each repetition in an empty root.
func (h *harness) setup() error {
	h.root = filepath.Join(h.dir, "root")
	if err := h.buildHistory(h.root); err != nil {
		return err
	}
	reps := h.setupReps()
	for i := 0; i < reps; i++ {
		root := h.root
		if len(h.sp.history) == 0 && i < reps-1 {
			root = filepath.Join(h.dir, fmt.Sprintf("setup%d", i))
		}
		srv, took, err := h.open(root, true, false)
		if err != nil {
			return err
		}
		h.setups = append(h.setups, took.Seconds())
		if i == reps-1 {
			h.srv = srv
			break
		}
		srv.Stop()
		if root != h.root {
			os.RemoveAll(root)
		}
	}
	if len(h.sp.warmup) > 0 {
		h.generate(h.srv, h.sp.warmup, time.Now(), true)
		if !h.waitFor(60*time.Second, func() bool { return h.deliveredAll(h.srv, h.sp.warmup) }) {
			return fmt.Errorf("warm-up delivery did not finish")
		}
	}
	if log := h.srv.Store().FeedLog(h.sp.follow); len(log) > 0 {
		h.histHead = log[len(log)-1].ID
	}
	// Start the timed phase with nothing left to write back: dirty pages
	// from the history, the warm-up or earlier runs would otherwise be
	// flushed by the timed phase's fsyncs.
	syscall.Sync()
	return nil
}

// generate deposits items open-loop from two goroutines: each takes the
// next item in due order, waits for its due time and deposits it.
func (h *harness) generate(srv *server.Server, items []item, t0 time.Time, history bool) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				it := items[i]
				due := t0.Add(it.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				data := payload(it)
				dep := &deposit{it: it, due: due, crc: crc32.ChecksumIEEE(data), history: history}
				dep.start = time.Now()
				dep.err = srv.Deposit(it.name, data)
				dep.ack = time.Now()
				if h.rec != nil && !history {
					h.rec.add(span{Layer: "ingest", Op: "deposit", Path: it.name,
						Start: h.rec.since(dep.start), End: h.rec.since(dep.ack), G: goid(), Bytes: int64(len(data))})
				}
				h.mu.Lock()
				h.deposits[it.name] = dep
				h.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func (h *harness) waitFor(limit time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// deliveredAll reports whether every acked item reached every
// subscriber.
func (h *harness) deliveredAll(srv *server.Server, items []item) bool {
	want := 0
	h.mu.Lock()
	for _, it := range items {
		if d := h.deposits[it.name]; d != nil && d.err == nil {
			want++
		}
	}
	h.mu.Unlock()
	for _, sub := range h.sp.subs {
		if srv.Store().DeliveredCount(sub) < want {
			return false
		}
	}
	return true
}

// measure runs the timed phase and drains it. Batch workloads run
// their rounds one after another, each due once the previous drained,
// and start no round once the spec's run time has passed; the rounds
// not started are dropped from the schedule.
func (h *harness) measure() {
	h.follower = newFollower(h.srv.HTTPAddr(), h.sp.follow, h.histHead+1, h.rec)
	h.t0 = time.Now()
	go h.follower.loop()
	defer h.follower.stop()
	done := append(append([]item(nil), h.sp.history...), h.sp.warmup...)
	rounds := [][]item{h.sp.timed}
	if h.sp.batch {
		rounds = nil
		for i, it := range h.sp.timed {
			if i == 0 || it.group != h.sp.timed[i-1].group {
				rounds = append(rounds, nil)
			}
			rounds[len(rounds)-1] = append(rounds[len(rounds)-1], it)
		}
	}
	ran := 0
	for _, r := range rounds {
		if h.sp.batch && ran > 0 && time.Since(h.t0) >= h.sp.run {
			break
		}
		h.generate(h.srv, r, time.Now(), false)
		done = append(done, r...)
		ran += len(r)
		want := h.followWant()
		if !h.waitFor(90*time.Second, func() bool {
			return h.deliveredAll(h.srv, done) && h.follower.fetchedCount() >= want
		}) {
			// The check counts what is missing against the run.
			fmt.Fprintln(os.Stderr, "perfbench: timed files not drained within 90s")
			break
		}
		if h.sp.batch {
			h.collect(r)
		}
	}
	h.sp.timed = h.sp.timed[:ran]
	h.metas = make(map[uint64]receipts.FileMeta)
	for _, m := range h.srv.Store().AllFiles() {
		h.metas[m.ID] = m
	}
}

// collect checks the subscriber copies of a drained batch against the
// deposits and removes them, so that a long run keeps only the staged
// copies on disk. check uses the recorded outcomes.
func (h *harness) collect(items []item) {
	h.mu.Lock()
	defer h.mu.Unlock()
	want := make(map[string]*deposit, len(items))
	for _, it := range items {
		if d := h.deposits[it.name]; d != nil && d.err == nil {
			want[it.name] = d
		}
	}
	if h.collected == nil {
		h.collected = make(map[string]map[uint64]error)
	}
	for _, m := range h.srv.Store().AllFiles() {
		d := want[m.Name]
		if d == nil {
			continue
		}
		dropCached(h.stagedPath(m))
		for i, sub := range h.sp.subs {
			if h.collected[sub] == nil {
				h.collected[sub] = make(map[uint64]error)
			}
			p := h.subPath(i, m)
			h.collected[sub][m.ID] = sameContent(p, d.crc)
			os.Remove(p)
		}
	}
}

// stagedPath is where the server keeps a file's staged copy (the
// default staging directory under the root).
func (h *harness) stagedPath(m receipts.FileMeta) string {
	return filepath.Join(h.root, "staging", filepath.FromSlash(m.StagedPath))
}

// subPath is where subscriber i receives a file.
func (h *harness) subPath(i int, m receipts.FileMeta) string {
	return filepath.Join(h.root, fmt.Sprintf("in%d", i+1), filepath.FromSlash(m.StagedPath))
}

// sameContent reports whether the file at p has checksum crc.
func sameContent(p string, crc uint32) error {
	data, err := os.ReadFile(p)
	if err != nil {
		return err
	}
	if got := crc32.ChecksumIEEE(data); got != crc {
		return fmt.Errorf("crc %08x, deposited %08x", got, crc)
	}
	return nil
}

// followWant counts the acked timed files of the followed feed.
func (h *harness) followWant() int {
	n := 0
	for _, it := range h.sp.timed {
		if it.feed == h.sp.follow {
			if d := h.deposits[it.name]; d != nil && d.err == nil {
				n++
			}
		}
	}
	return n
}

// The follower asks for pages of pageLimit entries once per
// pollInterval.
const (
	pageLimit    = 512
	pollInterval = 20 * time.Millisecond
)

// follower tails one feed over one keep-alive HTTP connection and
// fetches the content of every new entry.
type follower struct {
	base   string
	next   uint64
	rec    *recorder
	client *http.Client
	quit   chan struct{}
	once   sync.Once
	done   chan struct{}

	mu        sync.Mutex
	seen      map[uint64]time.Time
	names     map[uint64]string
	fetched   map[uint64]time.Time
	dups      int
	badStatus int
	crcBad    int
	requests  int
	polls     sample
	contents  sample
	pageBytes int64
	pages     int
}

type logPage struct {
	Next    uint64 `json:"next"`
	Entries []struct {
		Seq  uint64 `json:"seq"`
		Name string `json:"name"`
		Size int64  `json:"size"`
		CRC  uint32 `json:"crc"`
	} `json:"entries"`
}

func newFollower(addr, feed string, from uint64, rec *recorder) *follower {
	return &follower{
		base: "http://" + addr + "/feeds/" + feed, next: from, rec: rec,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		quit: make(chan struct{}), done: make(chan struct{}),
		seen: make(map[uint64]time.Time), names: make(map[uint64]string),
		fetched: make(map[uint64]time.Time),
	}
}

// get issues one request and hands the body to read; the span and
// the returned latency cover the request through the end of the body.
func (f *follower) get(url, op string, read func(io.Reader) error) (int, time.Duration, error) {
	start := time.Now()
	resp, err := f.client.Get(url)
	if err != nil {
		return 0, time.Since(start), err
	}
	cr := &countingReader{r: resp.Body}
	err = read(cr)
	resp.Body.Close()
	took := time.Since(start)
	if f.rec != nil {
		f.rec.add(span{Layer: "httpfeed", Op: op, Start: f.rec.since(start), End: f.rec.since(start.Add(took)),
			G: goid(), Bytes: cr.n})
	}
	return resp.StatusCode, took, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (f *follower) loop() {
	defer close(f.done)
	for {
		select {
		case <-f.quit:
			return
		default:
		}
		var body []byte
		code, took, err := f.get(f.base+"?limit="+strconv.Itoa(pageLimit)+"&from="+strconv.FormatUint(f.next, 10), "poll",
			func(r io.Reader) (err error) { body, err = io.ReadAll(r); return err })
		f.mu.Lock()
		f.requests++
		f.polls.addDur(took)
		f.mu.Unlock()
		var page logPage
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(body, &page)
		}
		if err != nil || code != http.StatusOK {
			f.mu.Lock()
			f.badStatus++
			f.mu.Unlock()
			f.sleep()
			continue
		}
		now := time.Now()
		f.mu.Lock()
		f.pageBytes += int64(len(body))
		f.pages++
		for _, e := range page.Entries {
			if _, dup := f.seen[e.Seq]; dup {
				f.dups++
				continue
			}
			f.seen[e.Seq] = now
			f.names[e.Seq] = e.Name
		}
		f.mu.Unlock()
		for _, e := range page.Entries {
			crc := crc32.NewIEEE()
			var n int64
			code, took, err := f.get(f.base+"/files/"+strconv.FormatUint(e.Seq, 10), "content",
				func(r io.Reader) (err error) { n, err = io.Copy(crc, r); return err })
			at := time.Now()
			f.mu.Lock()
			f.requests++
			f.contents.addDur(took)
			switch {
			case err != nil || code != http.StatusOK:
				f.badStatus++
			case crc.Sum32() != e.CRC || n != e.Size:
				f.crcBad++
			default:
				f.fetched[e.Seq] = at
			}
			f.mu.Unlock()
		}
		if page.Next > f.next {
			f.next = page.Next
		}
		// A full page means more is waiting.
		if len(page.Entries) < pageLimit {
			f.sleep()
		}
	}
}

func (f *follower) sleep() {
	t := time.NewTimer(pollInterval)
	defer t.Stop()
	select {
	case <-f.quit:
	case <-t.C:
	}
}

func (f *follower) fetchedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.fetched)
}

func (f *follower) stop() {
	f.once.Do(func() { close(f.quit) })
	<-f.done
	f.client.CloseIdleConnections()
}

// check verifies delivery correctness after the server stopped: every
// acked file reached every subscriber exactly once with the deposited
// bytes, per-source order held, and the tailed log showed every seq of
// the followed feed once. It returns the failures counted against the
// attempted operations and a description of each violation.
func (h *harness) check() (attempted, failed int, violations []string) {
	byName := make(map[string]receipts.FileMeta)
	for _, m := range h.metas {
		byName[m.Name] = m
	}
	counts := make(map[string]map[uint64]int)
	order := make(map[string]map[uint64]int)
	for i, ev := range h.events {
		if counts[ev.sub] == nil {
			counts[ev.sub] = make(map[uint64]int)
			order[ev.sub] = make(map[uint64]int)
		}
		counts[ev.sub][ev.id]++
		if _, ok := order[ev.sub][ev.id]; !ok {
			order[ev.sub][ev.id] = i
		}
	}
	// violateN counts n failed operations under one description.
	violateN := func(n int, format string, args ...any) {
		failed += n
		if len(violations) < 20 {
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}
	violate := func(format string, args ...any) { violateN(1, format, args...) }
	var deps []*deposit
	for _, d := range h.deposits {
		deps = append(deps, d)
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i].ack.Before(deps[j].ack) })
	for _, d := range deps {
		attempted++
		if d.err != nil {
			violate("deposit %s not acked: %v", d.it.name, d.err)
			continue
		}
		m, ok := byName[d.it.name]
		if !ok || m.Checksum != d.crc {
			violate("receipt for %s missing or checksum differs", d.it.name)
			continue
		}
		for i, sub := range h.sp.subs {
			attempted++
			switch n := counts[sub][m.ID]; {
			case n == 0:
				violate("%s never delivered to %s", d.it.name, sub)
				continue
			case n > 1:
				violate("%s delivered %d times to %s", d.it.name, n, sub)
				continue
			}
			err, ok := h.collected[sub][m.ID]
			if !ok {
				err = sameContent(h.subPath(i, m), d.crc)
			}
			if err != nil {
				violate("%s at %s: content differs from the deposit (%v)", d.it.name, sub, err)
			}
		}
	}
	// Per-source order: when A was acked before B's deposit began, every
	// subscriber must receive A before B.
	for _, sub := range h.sp.subs {
		bySource := make(map[string][]*deposit)
		for _, d := range deps {
			if d.err == nil {
				bySource[d.it.source] = append(bySource[d.it.source], d)
			}
		}
		for src, ds := range bySource {
			for i := 1; i < len(ds); i++ {
				a, b := ds[i-1], ds[i]
				if !a.ack.Before(b.start) {
					continue
				}
				oa, oka := order[sub][byName[a.it.name].ID]
				ob, okb := order[sub][byName[b.it.name].ID]
				if oka && okb && oa > ob {
					violate("source %s: %s delivered to %s after %s", src, a.it.name, sub, b.it.name)
				}
			}
		}
	}
	// The tailed log: every timed seq of the followed feed once, no holes.
	f := h.follower
	want := make(map[uint64]bool)
	for _, d := range deps {
		if d.err == nil && !d.history && d.it.feed == h.sp.follow {
			want[byName[d.it.name].ID] = true
		}
	}
	for seq := range f.seen {
		if !want[seq] {
			violate("log page showed seq %d (%s) that was not deposited", seq, f.names[seq])
		}
	}
	for seq := range want {
		attempted++
		if _, ok := f.seen[seq]; !ok {
			violate("log pages never showed seq %d", seq)
		} else if _, ok := f.fetched[seq]; !ok {
			violate("content of seq %d never fetched", seq)
		}
	}
	attempted += f.requests
	if f.dups > 0 {
		violate("log pages repeated %d seqs", f.dups)
	}
	if f.badStatus > 0 {
		violateN(f.badStatus, "%d HTTP requests failed", f.badStatus)
	}
	if f.crcBad > 0 {
		violateN(f.crcBad, "%d HTTP contents failed their CRC", f.crcBad)
	}
	// Nothing but delivered files (and no stray temp files) in the
	// subscriber directories.
	for i := range h.sp.subs {
		n := 0
		filepath.WalkDir(filepath.Join(h.root, fmt.Sprintf("in%d", i+1)), func(p string, e os.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				n++
				if strings.HasPrefix(e.Name(), ".bistro-") {
					violate("stray temp file %s", p)
				}
			}
			return nil
		})
		if want := len(counts[h.sp.subs[i]]) - len(h.collected[h.sp.subs[i]]); n != want {
			violate("subscriber %s directory holds %d files, %d were delivered", h.sp.subs[i], n, want)
		}
	}
	return attempted, failed, violations
}
