package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bistro/internal/classifier"
	"bistro/internal/config"
	"bistro/internal/delivery"
	"bistro/internal/diskfault"
	"bistro/internal/normalize"
	"bistro/internal/receipts"
	"bistro/internal/scheduler"
)

// The drivers below feed a workload's own inputs into the public
// functions of layers that have no seam in server.Options. They run
// only in traced runs, after the measured server has stopped.

// driveClassifier times Classify over the workload's file names against
// its feed configuration.
func driveClassifier(sp *spec) (nsPerOp, allocsPerOp float64, err error) {
	cfg, err := config.Parse(configText(sp, true))
	if err != nil {
		return 0, 0, err
	}
	c := classifier.New(cfg.Feeds, classifier.Options{})
	var names []string
	for _, it := range append(append([]item(nil), sp.history...), sp.timed...) {
		names = append(names, it.name)
	}
	for _, n := range names {
		if len(c.Classify(n)) != 1 {
			return 0, 0, fmt.Errorf("classifier: %s matched no single feed", n)
		}
	}
	ops := 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < ops; i++ {
		c.Classify(names[i%len(names)])
	}
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(took.Nanoseconds()) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops), nil
}

// driveNormalize stages the workload's small sizes one by one on a
// real directory (p50 per file), then four 8 MiB files (MB/s).
func driveNormalize(sp *spec, dir string) (stageUsP50, mbPerS float64, err error) {
	src := filepath.Join(dir, "src")
	dst := filepath.Join(dir, "dst")
	if err := os.MkdirAll(src, 0o755); err != nil {
		return 0, 0, err
	}
	var sizes []int
	for _, it := range append(append([]item(nil), sp.timed...), sp.history...) {
		if !it.large && len(sizes) < 200 {
			sizes = append(sizes, it.size)
		}
	}
	for len(sizes) < 200 {
		sizes = append(sizes, 256+len(sizes)*19)
	}
	fsys := diskfault.OS()
	var small sample
	for i, size := range sizes {
		p := filepath.Join(src, fmt.Sprintf("s%d", i))
		if err := os.WriteFile(p, make([]byte, size), 0o644); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if _, err := normalize.ProcessFS(fsys, p, filepath.Join(dst, "FEED", fmt.Sprintf("s%d", i)), config.CompressNone); err != nil {
			return 0, 0, err
		}
		small.addDur(time.Since(start))
	}
	const large = 8 << 20
	var bytes int64
	var took time.Duration
	for i := 0; i < 4; i++ {
		p := filepath.Join(src, fmt.Sprintf("l%d", i))
		if err := os.WriteFile(p, gzipDump(large, int64(i)), 0o644); err != nil {
			return 0, 0, err
		}
		start := time.Now()
		res, err := normalize.ProcessFS(fsys, p, filepath.Join(dst, "FEED", fmt.Sprintf("l%d", i)), config.CompressNone)
		if err != nil {
			return 0, 0, err
		}
		took += time.Since(start)
		bytes += res.Size
	}
	return small.pct(0.5) * 1000, float64(bytes) / 1e6 / took.Seconds(), nil
}

// commitLatencies runs two committers against a fresh store in the
// given mode and returns per-commit latencies in microseconds.
func commitLatencies(dir string, opts receipts.Options) (sample, error) {
	st, err := receipts.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	const committers, perCommitter = 2, 150
	var mu sync.Mutex
	var out sample
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				meta := receipts.FileMeta{
					Name: fmt.Sprintf("F_POLL%d_%06d.txt", c, i), StagedPath: fmt.Sprintf("F/F_POLL%d_%06d.txt", c, i),
					Feeds: []string{"F"}, Size: 2048, Arrived: time.Now(),
				}
				start := time.Now()
				if _, err := st.RecordArrival(meta); err != nil {
					errs <- err
					return
				}
				took := time.Since(start)
				mu.Lock()
				out = append(out, float64(took.Nanoseconds())/1e3)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	return out, <-errs
}

type receiptsDriver struct {
	commit, commitSync, commitWindow sample
	recoveryS, feedlogUs             float64
}

// driveReceipts measures WAL commits in the server's default group
// mode, in one-fsync-per-commit mode and with a 64/2ms flush window,
// then recovery and FeedLog on the run's own receipt history.
func driveReceipts(dir, history, feed string) (receiptsDriver, error) {
	var r receiptsDriver
	var err error
	if r.commit, err = commitLatencies(filepath.Join(dir, "default"), receipts.Options{}); err != nil {
		return r, err
	}
	if r.commitSync, err = commitLatencies(filepath.Join(dir, "sync"), receipts.Options{NoGroupCommit: true}); err != nil {
		return r, err
	}
	win := receipts.Options{GroupCommit: receipts.GroupCommitConfig{MaxBatch: 64, MaxDelay: 2 * time.Millisecond}}
	if r.commitWindow, err = commitLatencies(filepath.Join(dir, "window"), win); err != nil {
		return r, err
	}
	var recov []float64
	var st *receipts.Store
	for i := 0; i < 3; i++ {
		start := time.Now()
		st, err = receipts.Open(history, receipts.Options{})
		if err != nil {
			return r, err
		}
		recov = append(recov, time.Since(start).Seconds())
		if i < 2 {
			st.Close()
		}
	}
	defer st.Close()
	r.recoveryS = median(recov)
	var fl []float64
	for i := 0; i < 21; i++ {
		start := time.Now()
		st.FeedLog(feed)
		fl = append(fl, float64(time.Since(start).Nanoseconds())/1e3)
	}
	r.feedlogUs = median(fl)
	return r, nil
}

// driveScheduler queues depth jobs for one subscriber on the delivery
// engine's default partition layout (bulk partition, default
// MaxInFlightPerSubscriber) and runs that partition's workers against
// it. Each claimed job is held for holdTime, standing in for the
// transfer and receipt, as a delivery worker holds its subscriber's
// slot. The result is the claim gap on the critical path: from one
// job's Done to the next job's Next returning, in microseconds, which
// includes scans by workers that found nothing eligible. Claims stop
// after a time budget, so a deep backlog is measured near full depth.
func driveScheduler(depth int, backfill bool) (sample, error) {
	const holdTime = 200 * time.Microsecond
	cfg := delivery.DefaultSchedulerConfig()
	sch, err := scheduler.New(cfg)
	if err != nil {
		return nil, err
	}
	const part = 1
	if err := sch.AssignSubscriber("sub1", part); err != nil {
		return nil, err
	}
	now := time.Now()
	for i := 0; i < depth; i++ {
		sch.Submit(&scheduler.Job{
			FileID: uint64(i + 1), Feed: "F", Subscriber: "sub1", Path: fmt.Sprintf("F/f%d", i),
			Size: 2048, Release: now, Deadline: now.Add(time.Minute), Priority: 1, Backfill: backfill,
		})
	}
	pc := cfg.Partitions[part]
	budget := time.Now().Add(800 * time.Millisecond)
	var mu sync.Mutex
	var gaps sample
	var lastDone time.Time
	claimed := 0
	var wg sync.WaitGroup
	var once sync.Once
	worker := func(lane scheduler.Lane) {
		defer wg.Done()
		for {
			jobs := sch.Next(part, lane)
			if jobs == nil {
				return
			}
			got := time.Now()
			mu.Lock()
			if !lastDone.IsZero() {
				gaps = append(gaps, float64(got.Sub(lastDone).Nanoseconds())/1e3)
			}
			claimed += len(jobs)
			stop := claimed >= depth || got.After(budget)
			mu.Unlock()
			time.Sleep(holdTime)
			mu.Lock()
			lastDone = time.Now()
			mu.Unlock()
			for _, j := range jobs {
				sch.Done(j)
			}
			if stop {
				once.Do(sch.Close)
				return
			}
		}
	}
	for w := 0; w < pc.Workers-pc.BackfillWorkers; w++ {
		wg.Add(1)
		go worker(scheduler.LaneRealtime)
	}
	for w := 0; w < pc.BackfillWorkers; w++ {
		wg.Add(1)
		go worker(scheduler.LaneBackfill)
	}
	wg.Wait()
	return gaps, nil
}
