package main

import (
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the server sees and what the
// benchmark gates; every workload reports each of them (README.md
// gives the per-workload meaning).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"files_per_s", "files/s"}, {"mb_per_s", "MB/s"},
	{"poll_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// latencyMetrics are end-to-end latencies that the untraced run also
// computes but that vary with the shared disk's state by more than a
// regression bound between identical runs (README.md). The traced run
// reports them as diagnostics under a "latency." prefix.
var latencyMetrics = []metricDef{
	{"ack_p50_ms", "ms"}, {"ack_p90_ms", "ms"},
	{"prop_p50_ms", "ms"}, {"prop_p90_ms", "ms"},
	{"fresh_p50_ms", "ms"}, {"fresh_p90_ms", "ms"},
	{"poll_p90_ms", "ms"},
}

// perLayerMetrics are the traced run's numbers, one layer each.
var perLayerMetrics = []metricDef{
	{"diskfault.fsyncs_per_file", "count"},
	{"diskfault.dir_fsyncs_per_file", "count"},
	{"diskfault.fsync_ms_per_file", "ms"},
	{"diskfault.creates_per_file", "count"},
	{"diskfault.mkdirs_per_file", "count"},
	{"diskfault.opens_per_file", "count"},
	{"diskfault.renames_per_file", "count"},
	{"diskfault.removes_per_file", "count"},
	{"diskfault.write_bytes_per_user_byte", "ratio"},
	{"diskfault.read_bytes_per_delivered_byte", "ratio"},
	{"receipts.wal_fsyncs_per_file", "count"},
	{"receipts.wal_bytes_per_file", "bytes"},
	{"receipts.commit_us_p50", "us"}, {"receipts.commit_us_p90", "us"},
	{"receipts.commit_sync_us_p50", "us"}, {"receipts.commit_sync_us_p90", "us"},
	{"receipts.commit_window_us_p50", "us"}, {"receipts.commit_window_us_p90", "us"},
	{"receipts.recovery_s", "s"},
	{"receipts.feedlog_us", "us"},
	{"ingest.deposit_ms_p50", "ms"}, {"ingest.deposit_ms_p90", "ms"},
	{"ingest.deposit_self_ms_p50", "ms"},
	{"classifier.classify_ns", "ns"},
	{"classifier.allocs_per_op", "count"},
	{"classifier.share_of_deposit_pct", "%"},
	{"normalize.stage_us_p50", "us"},
	{"normalize.mb_per_s", "MB/s"},
	{"scheduler.claim_us_p50", "us"}, {"scheduler.claim_us_p90", "us"},
	{"scheduler.depth", "count"},
	{"scheduler.backlog_claim_us_p50", "us"}, {"scheduler.backlog_claim_us_p90", "us"},
	{"delivery.queue_ms_p50", "ms"}, {"delivery.queue_ms_p90", "ms"},
	{"delivery.receipt_ms_p50", "ms"},
	{"delivery.retries", "count"},
	{"delivery.failed", "count"},
	{"delivery.duplicates", "count"},
	{"transport.deliver_ms_p50", "ms"}, {"transport.deliver_ms_p90", "ms"},
	{"transport.busy_share", "ratio"},
	{"transport.inflight_max", "count"},
	{"httpfeed.content_ms_p50", "ms"},
	{"httpfeed.page_bytes", "bytes"},
	{"latency.ack_p50_ms", "ms"}, {"latency.ack_p90_ms", "ms"},
	{"latency.prop_p50_ms", "ms"}, {"latency.prop_p90_ms", "ms"},
	{"latency.fresh_p50_ms", "ms"}, {"latency.fresh_p90_ms", "ms"},
	{"latency.poll_p90_ms", "ms"},
	{"tail.ack_p99_ms", "ms"}, {"tail.ack_max_ms", "ms"}, {"tail.ack_samples", "count"},
	{"tail.prop_p99_ms", "ms"}, {"tail.prop_max_ms", "ms"}, {"tail.prop_samples", "count"},
	{"tail.poll_p99_ms", "ms"}, {"tail.poll_max_ms", "ms"}, {"tail.poll_samples", "count"},
	{"proc.cpu_ms_per_file", "ms"},
	{"proc.alloc_bytes_per_file", "bytes"},
	{"proc.gc_pause_ms", "ms"},
	{"path.gen_wait_ms", "ms"},
	{"path.landing_fs_ms", "ms"},
	{"path.staging_fs_ms", "ms"},
	{"path.wal_ms", "ms"},
	{"path.shard_wait_ms", "ms"},
	{"path.ingest_other_ms", "ms"},
	{"path.shard_fsync_share_pct", "%"},
	{"path.shard_storage_share_pct", "%"},
	{"path.queue_ms", "ms"},
	{"path.sched_gap_ms", "ms"},
	{"path.transfer_ms", "ms"},
	{"path.receipt_ms", "ms"},
	{"bench.gen_lag_ms_p90", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.failed_ratio", "ratio"},
}

// e2e holds the end-to-end samples of a run.
type e2e struct {
	values           map[string]float64
	ack, prop, fresh sample
	genLag           sample
	setups           []float64
	backlog          int
	rounds           int // batch rounds run
	files            int // files that passed through the measured server
	userBytes        int64
	deliveredBytes   int64
	// firstDelivery[sub][id] is the first EvDelivered time.
	firstDelivery map[string]map[uint64]time.Time
	ids           map[string]uint64 // deposit name -> file id
}

// window is the files delivered to every subscriber and the time they
// took: from the first due time to the last delivery.
type window struct {
	files       int
	bytes       int64
	first, last time.Time
}

func (r *window) widen(first, last time.Time) {
	if r.first.IsZero() || first.Before(r.first) {
		r.first = first
	}
	if last.After(r.last) {
		r.last = last
	}
}

func (h *harness) endToEnd(peakMB float64) *e2e {
	e := &e2e{values: make(map[string]float64), setups: h.setups,
		firstDelivery: make(map[string]map[uint64]time.Time), ids: make(map[string]uint64)}
	for id, m := range h.metas {
		e.ids[m.Name] = id
	}
	for _, ev := range h.events {
		if e.firstDelivery[ev.sub] == nil {
			e.firstDelivery[ev.sub] = make(map[uint64]time.Time)
		}
		if _, ok := e.firstDelivery[ev.sub][ev.id]; !ok {
			e.firstDelivery[ev.sub][ev.id] = ev.at
		}
	}
	// allDelivered returns when a file reached its last subscriber.
	allDelivered := func(id uint64) (time.Time, bool) {
		var last time.Time
		for _, sub := range h.sp.subs {
			at, ok := e.firstDelivery[sub][id]
			if !ok {
				return time.Time{}, false
			}
			if at.After(last) {
				last = at
			}
		}
		return last, true
	}
	f := h.follower
	r := &window{}
	rounds := make(map[int]*window)
	for _, it := range h.sp.timed {
		d := h.deposits[it.name]
		if d == nil || d.err != nil {
			continue
		}
		e.ack.addDur(d.ack.Sub(d.due))
		e.genLag.addDur(d.start.Sub(d.due))
		e.files++
		e.userBytes += int64(it.size)
		id := e.ids[it.name]
		for _, sub := range h.sp.subs {
			if at, ok := e.firstDelivery[sub][id]; ok {
				e.prop.addDur(at.Sub(d.due))
			}
		}
		if it.feed == h.sp.follow {
			if at, ok := f.seen[id]; ok {
				e.fresh.addDur(at.Sub(d.due))
			}
		}
		if last, ok := allDelivered(id); ok {
			r.files++
			r.bytes += int64(it.size)
			r.widen(d.due, last)
			if rounds[it.group] == nil {
				rounds[it.group] = &window{}
			}
			rounds[it.group].widen(d.due, last)
		}
	}
	if h.sp.backlogRate {
		r = h.catchupWindow(e.ids, allDelivered)
		e.backlog = r.files
		e.files += r.files
	}
	e.deliveredBytes = r.bytes * int64(len(h.sp.subs))
	v := e.values
	v["setup_s"] = median(h.setups)
	v["ack_p50_ms"], v["ack_p90_ms"] = e.ack.pct(0.5), e.ack.pct(0.9)
	v["prop_p50_ms"], v["prop_p90_ms"] = e.prop.pct(0.5), e.prop.pct(0.9)
	v["fresh_p50_ms"], v["fresh_p90_ms"] = e.fresh.pct(0.5), e.fresh.pct(0.9)
	secs := r.last.Sub(r.first).Seconds()
	if h.sp.batch {
		// Batch rounds: their windows summed, without the gaps between
		// rounds in which collect checks the copies.
		secs = 0
		for _, w := range rounds {
			secs += w.last.Sub(w.first).Seconds()
		}
		e.rounds = len(rounds)
	}
	v["files_per_s"] = float64(r.files) / secs
	v["mb_per_s"] = float64(r.bytes) / 1e6 / secs
	v["poll_p50_ms"], v["poll_p90_ms"] = f.polls.pct(0.5), f.polls.pct(0.9)
	v["peak_rss_mb"] = peakMB
	return e
}

// catchupWindow is the backlog the measured server delivered, from the
// Start call to the last of those deliveries.
func (h *harness) catchupWindow(ids map[string]uint64, allDelivered func(uint64) (time.Time, bool)) *window {
	r := &window{first: h.startCall, last: h.startCall}
	for _, it := range h.sp.history {
		if last, ok := allDelivered(ids[it.name]); ok && last.After(h.startCall) {
			r.files++
			r.bytes += int64(it.size)
			r.widen(h.startCall, last)
		}
	}
	return r
}

// fsSnapshot is a point-in-time copy of a tracedFS's counters.
type fsSnapshot struct {
	opens, creates, mkdirs, renames, removes, fsyncs, dirFsyncs int64
	fsyncNanos, writeBytes, readBytes                           int64
}

func (t *tracedFS) snapshot() fsSnapshot {
	return fsSnapshot{
		opens: t.n.opens.Load(), creates: t.n.creates.Load(), mkdirs: t.n.mkdirs.Load(),
		renames: t.n.renames.Load(), removes: t.n.removes.Load(), fsyncs: t.n.fsyncs.Load(),
		dirFsyncs: t.n.dirFsyncs.Load(), fsyncNanos: t.n.fsyncNanos.Load(),
		writeBytes: t.n.writeBytes.Load(), readBytes: t.n.readBytes.Load(),
	}
}

func (a fsSnapshot) sub(b fsSnapshot) fsSnapshot {
	return fsSnapshot{
		opens: a.opens - b.opens, creates: a.creates - b.creates, mkdirs: a.mkdirs - b.mkdirs,
		renames: a.renames - b.renames, removes: a.removes - b.removes, fsyncs: a.fsyncs - b.fsyncs,
		dirFsyncs: a.dirFsyncs - b.dirFsyncs, fsyncNanos: a.fsyncNanos - b.fsyncNanos,
		writeBytes: a.writeBytes - b.writeBytes, readBytes: a.readBytes - b.readBytes,
	}
}

// perFile divides the storage-seam counters by the files that passed
// through the measured server.
func perFile(d fsSnapshot, files int, userBytes, deliveredBytes int64, l map[string]float64) {
	n := float64(files)
	l["diskfault.fsyncs_per_file"] = float64(d.fsyncs) / n
	l["diskfault.dir_fsyncs_per_file"] = float64(d.dirFsyncs) / n
	l["diskfault.fsync_ms_per_file"] = float64(d.fsyncNanos) / 1e6 / n
	l["diskfault.creates_per_file"] = float64(d.creates) / n
	l["diskfault.mkdirs_per_file"] = float64(d.mkdirs) / n
	l["diskfault.opens_per_file"] = float64(d.opens) / n
	l["diskfault.renames_per_file"] = float64(d.renames) / n
	l["diskfault.removes_per_file"] = float64(d.removes) / n
	l["diskfault.write_bytes_per_user_byte"] = float64(d.writeBytes) / float64(userBytes)
	l["diskfault.read_bytes_per_delivered_byte"] = float64(d.readBytes) / float64(deliveredBytes)
}

// perLayer computes the traced run's per-layer metrics from the spans,
// the seam counters and the layer drivers.
func (h *harness) perLayer(e *e2e, fs0, fs1 fsSnapshot, cpuMs float64, ms0, ms1 runtime.MemStats, failedRatio float64) (map[string]float64, error) {
	l := make(map[string]float64)
	spans := h.rec.snapshot()
	userBytes := e.userBytes
	if userBytes == 0 {
		userBytes = 1
	}
	perFile(fs1.sub(fs0), e.files, userBytes, e.deliveredBytes, l)
	t0 := h.rec.since(h.t0)
	var walFsyncs, walBytes int64
	for _, s := range spans {
		if s.Layer == "diskfault" && s.Class == "receipts" && s.Start >= t0 {
			switch s.Op {
			case "fsync":
				walFsyncs++
			case "write":
				walBytes += s.Bytes
			}
		}
	}
	l["receipts.wal_fsyncs_per_file"] = float64(walFsyncs) / float64(e.files)
	l["receipts.wal_bytes_per_file"] = float64(walBytes) / float64(e.files)

	p := h.blockingPath(spans, e)
	for k, v := range p {
		l[k] = v
	}

	cls, allocs, err := driveClassifier(h.sp)
	if err != nil {
		return nil, err
	}
	l["classifier.classify_ns"] = cls
	l["classifier.allocs_per_op"] = allocs
	l["classifier.share_of_deposit_pct"] = cls / 1e6 / l["ingest.deposit_ms_p50"] * 100
	if l["normalize.stage_us_p50"], l["normalize.mb_per_s"], err = driveNormalize(h.sp, filepath.Join(h.dir, "drv-normalize")); err != nil {
		return nil, err
	}
	r, err := driveReceipts(filepath.Join(h.dir, "drv-receipts"), filepath.Join(h.root, "receipts"), biggestFeed(h))
	if err != nil {
		return nil, err
	}
	l["receipts.commit_us_p50"], l["receipts.commit_us_p90"] = r.commit.pct(0.5), r.commit.pct(0.9)
	l["receipts.commit_sync_us_p50"], l["receipts.commit_sync_us_p90"] = r.commitSync.pct(0.5), r.commitSync.pct(0.9)
	l["receipts.commit_window_us_p50"], l["receipts.commit_window_us_p90"] = r.commitWindow.pct(0.5), r.commitWindow.pct(0.9)
	l["receipts.recovery_s"] = r.recoveryS
	l["receipts.feedlog_us"] = r.feedlogUs
	depth, backfill := h.schedDepth()
	claims, err := driveScheduler(depth, backfill)
	if err != nil {
		return nil, err
	}
	l["scheduler.claim_us_p50"], l["scheduler.claim_us_p90"] = claims.pct(0.5), claims.pct(0.9)
	l["scheduler.depth"] = float64(depth)
	// Every traced run also measures claims at a restart's backlog depth
	// (the restart-catchup history), the case ROADMAP 2b targets.
	backlog, err := driveScheduler(backlogDepth, true)
	if err != nil {
		return nil, err
	}
	l["scheduler.backlog_claim_us_p50"], l["scheduler.backlog_claim_us_p90"] = backlog.pct(0.5), backlog.pct(0.9)

	for _, m := range latencyMetrics {
		l["latency."+m.name] = e.values[m.name]
	}
	l["tail.ack_p99_ms"], l["tail.ack_max_ms"], l["tail.ack_samples"] = e.ack.pct(0.99), e.ack.max(), float64(len(e.ack))
	l["tail.prop_p99_ms"], l["tail.prop_max_ms"], l["tail.prop_samples"] = e.prop.pct(0.99), e.prop.max(), float64(len(e.prop))
	f := h.follower
	l["tail.poll_p99_ms"], l["tail.poll_max_ms"], l["tail.poll_samples"] = f.polls.pct(0.99), f.polls.max(), float64(len(f.polls))
	l["httpfeed.content_ms_p50"] = f.contents.pct(0.5)
	l["httpfeed.page_bytes"] = float64(f.pageBytes) / float64(f.pages)

	l["proc.cpu_ms_per_file"] = cpuMs / float64(e.files)
	l["proc.alloc_bytes_per_file"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(e.files)
	l["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	l["bench.gen_lag_ms_p90"] = e.genLag.pct(0.9)
	l["bench.failed_ratio"] = failedRatio
	l["bench.trace_overhead_pct"] = traceOverheadPct(len(spans), cpuMs)
	l["delivery.retries"] = float64(h.retries)
	l["delivery.failed"] = float64(h.failedEvs)
	return l, nil
}

// schedDepth is the scheduler queue depth the workload produces: the
// whole backlog for a catch-up, otherwise the files one burst queues.
func (h *harness) schedDepth() (int, bool) {
	if h.sp.backlogRate {
		return len(h.sp.history), true
	}
	groups := make(map[int]int)
	most := 1
	for _, it := range h.sp.timed {
		groups[it.group]++
		if groups[it.group] > most {
			most = groups[it.group]
		}
	}
	if len(groups) == 1 && len(h.sp.timed) > 0 && h.sp.timed[len(h.sp.timed)-1].due > 0 {
		// Paced arrivals: one second of them.
		last := h.sp.timed[len(h.sp.timed)-1].due
		most = int(float64(len(h.sp.timed)) / last.Seconds())
	}
	return most * len(h.sp.subs), false
}

func biggestFeed(h *harness) string {
	count := make(map[string]int)
	for _, m := range h.metas {
		for _, f := range m.Feeds {
			count[f]++
		}
	}
	best := h.sp.follow
	for f, n := range count {
		if n > count[best] || (n == count[best] && f < best) {
			best = f
		}
	}
	return best
}

// traceOverheadPct estimates the share of the run's CPU time spent
// recording spans: the measured cost of one record times the number
// recorded.
func traceOverheadPct(spans int, cpuMs float64) float64 {
	r := newRecorder(time.Now())
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		r.add(span{Layer: "calibrate", Op: "x", Start: r.since(t), End: r.since(time.Now()), G: goid()})
	}
	per := float64(time.Since(start).Nanoseconds()) / n
	return per * float64(spans) / 1e6 / cpuMs * 100
}

// blockingPath attributes each timed file's time to the stages on its
// blocking path. The deposit's storage calls are found by goroutine:
// the landing write runs on the depositing goroutine, the rest of
// ingest on the shard worker that opened the landing file.
func (h *harness) blockingPath(spans []span, e *e2e) map[string]float64 {
	l := make(map[string]float64)
	byG := make(map[uint64][]span)
	opener := make(map[string][]span) // landing path -> open spans
	var deliveries []span
	for _, s := range spans {
		switch s.Layer {
		case "diskfault":
			byG[s.G] = append(byG[s.G], s)
			if s.Op == "open" && s.Class == "landing" {
				opener[s.Path] = append(opener[s.Path], s)
			}
		case "transport":
			if s.Op == "deliver" {
				deliveries = append(deliveries, s)
			}
		}
	}
	for _, v := range byG {
		sort.Slice(v, func(i, j int) bool { return v[i].Start < v[j].Start })
	}
	within := func(g uint64, from, to int64) []span {
		v := byG[g]
		i := sort.Search(len(v), func(i int) bool { return v[i].Start >= from })
		j := i
		for j < len(v) && v[j].End <= to {
			j++
		}
		return v[i:j]
	}
	depG := make(map[string]uint64)
	for _, ds := range spans {
		if ds.Layer == "ingest" {
			depG[ds.Path] = ds.G
		}
	}
	landingDir := filepath.Join(h.root, "landing")
	var genWait, landing, shardWait, staging, wal, other, deposit, selfS sample
	var fsyncIn, storageIn, service float64
	for _, it := range h.sp.timed {
		d := h.deposits[it.name]
		if d == nil || d.err != nil {
			continue
		}
		s, en := h.rec.since(d.start), h.rec.since(d.ack)
		g := depG[it.name]
		mine := within(g, s, en)
		var landed int64 = s // end of the landing write on the depositor
		for _, m := range mine {
			if m.End > landed {
				landed = m.End
			}
		}
		// The shard worker's part starts when it opens the landing file.
		lp := filepath.Join(landingDir, filepath.FromSlash(it.name))
		shardStart := en
		for _, o := range opener[lp] {
			if o.G != g && o.Start >= s && o.End <= en {
				shardStart = o.Start
				mine = append(mine, within(o.G, o.Start, en)...)
				break
			}
		}
		cls := map[string]int64{}
		var iv []interval
		for _, m := range mine {
			cls[m.Class] += m.End - m.Start
			iv = append(iv, interval{m.Start, m.End})
			if m.Start >= shardStart {
				storageIn += float64(m.End - m.Start)
				if m.Op == "fsync" || m.Op == "sync_dir" {
					fsyncIn += float64(m.End - m.Start)
				}
			}
		}
		dur := en - s
		own := unionLen(iv)
		wait := shardStart - landed
		if wait < 0 {
			wait = 0
		}
		service += float64(en - shardStart)
		ms := func(ns int64) time.Duration { return time.Duration(ns) }
		genWait.addDur(d.start.Sub(d.due))
		landing.addDur(ms(cls["landing"]))
		shardWait.addDur(ms(wait))
		staging.addDur(ms(cls["staging"]))
		wal.addDur(ms(cls["receipts"]))
		other.addDur(ms(dur - own - wait))
		deposit.addDur(ms(dur))
		selfS.addDur(ms(dur - own))
	}
	l["ingest.deposit_ms_p50"], l["ingest.deposit_ms_p90"] = deposit.pct(0.5), deposit.pct(0.9)
	l["ingest.deposit_self_ms_p50"] = selfS.pct(0.5)
	l["path.gen_wait_ms"] = genWait.mean()
	l["path.landing_fs_ms"] = landing.mean()
	l["path.shard_wait_ms"] = shardWait.mean()
	l["path.staging_fs_ms"] = staging.mean()
	l["path.wal_ms"] = wal.mean()
	l["path.ingest_other_ms"] = other.mean()
	l["path.shard_fsync_share_pct"] = fsyncIn / service * 100
	l["path.shard_storage_share_pct"] = storageIn / service * 100

	// Delivery side: per (subscriber, file) the first transfer.
	type key struct {
		sub string
		id  uint64
	}
	first := make(map[key]span)
	dups := 0
	for _, s := range deliveries {
		k := key{s.Sub, s.File}
		if _, ok := first[k]; ok {
			dups++
			continue
		}
		first[k] = s
	}
	l["delivery.duplicates"] = float64(dups)
	ackOf := make(map[uint64]int64)
	for name, d := range h.deposits {
		if d.err == nil && !d.history {
			ackOf[e.ids[name]] = h.rec.since(d.ack)
		}
	}
	if h.sp.backlogRate {
		for _, it := range h.sp.history {
			ackOf[e.ids[it.name]] = h.rec.since(h.startCall)
		}
	}
	var queue, transfer, receipt, gaps sample
	var busy []interval
	bySub := make(map[string][]span)
	for k, s := range first {
		transfer.addDur(s.dur())
		busy = append(busy, interval{s.Start, s.End})
		bySub[k.sub] = append(bySub[k.sub], s)
		if a, ok := ackOf[k.id]; ok && s.Start >= t0(h) {
			// Delivery may begin before the depositor sees its ack.
			queue.addDur(time.Duration(max(s.Start-a, 0)))
		}
		if at, ok := e.firstDelivery[k.sub][k.id]; ok {
			receipt.addDur(time.Duration(h.rec.since(at) - s.End))
		}
	}
	// The scheduler's gap: from one delivery's receipt event to the
	// subscriber's next transfer start, while work was waiting.
	for sub, v := range bySub {
		sort.Slice(v, func(i, j int) bool { return v[i].Start < v[j].Start })
		for i := 1; i < len(v); i++ {
			prevEv, ok := e.firstDelivery[sub][v[i-1].File]
			if !ok {
				continue
			}
			a, ok := ackOf[v[i].File]
			if !ok || a > v[i-1].End {
				continue // the next file was not waiting yet
			}
			gaps.addDur(time.Duration(v[i].Start - h.rec.since(prevEv)))
		}
	}
	l["delivery.queue_ms_p50"], l["delivery.queue_ms_p90"] = queue.pct(0.5), queue.pct(0.9)
	l["delivery.receipt_ms_p50"] = receipt.pct(0.5)
	l["transport.deliver_ms_p50"], l["transport.deliver_ms_p90"] = transfer.pct(0.5), transfer.pct(0.9)
	elapsed := h.rec.since(time.Now()) - t0(h)
	if len(busy) > 0 {
		sort.Slice(busy, func(i, j int) bool { return busy[i].end < busy[j].end })
		elapsed = busy[len(busy)-1].end - t0(h)
	}
	l["transport.busy_share"] = float64(unionLen(busy)) / float64(elapsed)
	l["transport.inflight_max"] = float64(h.trans.maxIn.Load())
	l["path.queue_ms"] = queue.mean()
	l["path.sched_gap_ms"] = gaps.mean()
	if len(gaps) == 0 {
		l["path.sched_gap_ms"] = 0
	}
	l["path.transfer_ms"] = transfer.mean()
	l["path.receipt_ms"] = receipt.mean()
	return l
}

// t0 is the measured server's Start call in recorder time: backlog
// deliveries count from there, timed files from their ack.
func t0(h *harness) int64 { return h.rec.since(h.startCall) }
