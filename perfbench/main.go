// Command perfbench is Bistro's end-to-end benchmark on the real
// filesystem. It drives a single-node server.Server through its public
// API with one seeded workload, checks that every acked file reached
// every subscriber intact, and prints the workload's metrics. With
// -trace 0 it prints the end-to-end metrics; with -trace 1 it wraps the
// storage and transport seams, runs the per-layer drivers and prints
// the per-layer metrics plus a blocking-path report. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: poller-bursts, restart-catchup, pull-under-ingest, large-files")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = per-layer run with traced seams and drivers")
	work := flag.String("work", ".bench_build/work", "scratch directory for server state")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(mk(*seed, time.Duration(*seconds)*time.Second), *seed, dir, *trace == 1,
		filepath.Join(*work, "spans-"+*name+".jsonl"))
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload. A traced run writes its spans to
// spansPath.
func run(sp *spec, seed int64, dir string, trace bool, spansPath string) (*result, error) {
	h := newHarness(sp, dir, trace)
	if err := h.setup(); err != nil {
		return nil, err
	}
	var ru0 syscall.Rusage
	var ms0 runtime.MemStats
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	runtime.ReadMemStats(&ms0)
	var fs0 fsSnapshot
	if h.fs != nil {
		fs0 = h.fs.snapshot()
	}
	h.measure()
	var ru1 syscall.Rusage
	var ms1 runtime.MemStats
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	peakMB := peakRSSMB()
	var fs1 fsSnapshot
	if h.fs != nil {
		fs1 = h.fs.snapshot()
	}
	h.srv.Stop()

	attempted, failed, violations := h.check()
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "violation:", v)
	}
	e := h.endToEnd(peakMB)
	printMeta(h, seed, e)

	res := &result{Correct: len(violations) == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metric)}
	if !trace {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metric{Value: e.values[m.name], Unit: m.unit}
		}

		printTable("end-to-end", res.Metrics)
		return res, nil
	}
	cpu := rusageMs(ru1) - rusageMs(ru0)
	l, err := h.perLayer(e, fs0, fs1, cpu, ms0, ms1, float64(failed)/float64(attempted))
	if err != nil {
		return nil, err
	}
	for _, m := range perLayerMetrics {
		v, ok := l[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no value", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	printTable("per-layer", res.Metrics)
	printPath(l)
	if err := h.rec.writeTo(spansPath); err != nil {
		return nil, err
	}
	return res, nil
}

func rusageMs(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return math.NaN()
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// printMeta records what the run was made of, so a run paced by the
// generator rather than the server is visible.
func printMeta(h *harness, seed int64, e *e2e) {
	dirs, shards := landingDirs(append(append([]item(nil), h.sp.history...), h.sp.timed...), h.sp.ingestWorkers())
	meta := map[string]any{
		"workload":       h.sp.name,
		"seed":           seed,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"filesystem":     fsType(h.dir),
		"feeds":          len(h.sp.feeds),
		"subscribers":    len(h.sp.subs),
		"history_files":  len(h.sp.history),
		"backlog_files":  e.backlog,
		"batch_rounds":   e.rounds,
		"timed_files":    len(h.sp.timed),
		"landing_dirs":   dirs,
		"ingest_shards":  fmt.Sprintf("%d of %d", shards, h.sp.ingestWorkers()),
		"gen_lag_ms_p50": round(e.genLag.pct(0.5)),
		"gen_lag_ms_p90": round(e.genLag.pct(0.9)),
		"gen_lag_ms_max": round(e.genLag.max()),
		"setup_reps":     len(e.setups),
		"setup_s_min":    sample(e.setups).pct(0),
		"setup_s_max":    sample(e.setups).max(),
	}
	out, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Println(string(out))
}

// printPath lists the blocking path's stages in the order a file meets
// them.
func printPath(l map[string]float64) {
	fmt.Println("blocking path (mean ms per file):")
	for _, stage := range []string{"gen_wait", "landing_fs", "shard_wait", "staging_fs", "wal", "ingest_other",
		"queue", "sched_gap", "transfer", "receipt"} {
		fmt.Printf("  %-14s %12.4f\n", stage, l["path."+stage+"_ms"])
	}
	fmt.Printf("  shard time in fsync %.1f%%, in any storage call %.1f%%\n",
		l["path.shard_fsync_share_pct"], l["path.shard_storage_share_pct"])
}

func round(v float64) float64 { return math.Round(v*1000) / 1000 }

func printTable(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics:\n", title)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
