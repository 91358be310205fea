package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"bistro/internal/ingest"
	"bistro/internal/workload"
)

// item is one file the generator deposits.
type item struct {
	name   string
	feed   string
	source string // per-source ordering key: feed + poller id
	due    time.Duration
	size   int
	// large files carry pseudo-random gzip content made from seed;
	// small ones carry workload.Payload rows.
	large bool
	seed  int64
	wf    workload.File
	// group is the poller burst or the batch the file belongs to.
	group int
}

// spec is one workload: the server configuration, the prebuilt state
// and the timed schedule.
type spec struct {
	name  string
	feeds []feedDef
	subs  []string
	// historySubs subscribes the local subscribers while the history
	// is built, so the measured server starts caught up.
	historySubs bool
	history     []item
	// warmup is deposited and drained before the timed phase.
	warmup []item
	timed  []item
	// batch runs the timed rounds one after another, each due when the
	// previous one has drained.
	batch bool
	// follow is the feed the HTTP client tails.
	follow string
	// backlogRate reports the catch-up rate of the history instead of
	// the timed files' rate (restart-catchup).
	backlogRate bool
	// workers is the ingest shard count (default 2).
	workers int
	// run is how long a batch workload keeps starting rounds.
	run time.Duration
}

type feedDef struct {
	name string
	conv workload.Convention
}

var stats = []string{"BPS", "PPS", "CPU", "MEMORY", "LINKUTIL", "LINKLOSS"}

// conventions excludes ConvDaily: its one-file-per-day names would
// collide across the five-minute intervals the generator walks.
var conventions = []workload.Convention{
	workload.ConvUnderscoreTS, workload.ConvCompactTS, workload.ConvDatedDirs, workload.ConvIPNames,
}

// fleet returns n feeds named after the paper's router statistics.
func fleet(n int) []feedDef {
	out := make([]feedDef, n)
	for i := range out {
		out[i] = feedDef{
			name: fmt.Sprintf("%s%02d", stats[i%len(stats)], i/len(stats)),
			conv: conventions[i%len(conventions)],
		}
	}
	return out
}

// baseTime is the first data time of every workload. It does not vary
// with the seed: ingest shards arrivals by landing directory, and the
// dated-directory convention puts a day's files in one directory, so a
// per-seed date would move that directory between shards and make
// throughput depend on which date the seed drew.
var baseTime = time.Date(2010, 9, 25, 0, 0, 0, 0, time.UTC)

// generate walks intervals [first, first+n) of the given feeds through
// workload.Generator, with each file's size drawn from rng in [lo, hi].
func generate(rng *rand.Rand, seed int64, feeds []feedDef, sources []int, lo, hi, first, n int) [][]workload.File {
	const period = 5 * time.Minute
	specs := make([]workload.FeedSpec, len(feeds))
	for i, f := range feeds {
		specs[i] = workload.FeedSpec{
			Name: f.name, Sources: sources[i], Period: period,
			Convention: f.conv,
		}
	}
	start := baseTime.Add(time.Duration(first) * period)
	files := workload.New(seed, specs...).Window(start, start.Add(time.Duration(n)*period))
	byInterval := make([][]workload.File, n)
	for _, f := range files {
		k := int(f.DataTime.Sub(start) / period)
		byInterval[k] = append(byInterval[k], f)
	}
	for _, b := range byInterval {
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		for i := range b {
			b[i].Size = lo + rng.Intn(hi-lo+1)
		}
	}
	return byInterval
}

func newItem(f workload.File, due time.Duration, group int) item {
	return item{
		name: f.Name, feed: f.Feed, source: fmt.Sprintf("%s/%d", f.Feed, f.Source),
		due: due, size: f.Size, wf: f, group: group,
	}
}

func perFeed(rng *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = lo + rng.Intn(hi-lo+1)
	}
	return out
}

// pollerBursts: 120 feeds, every period a burst of ~520 small files
// from every poller falls due at once; one local subscriber.
func pollerBursts(seed int64, run time.Duration) *spec {
	rng := rand.New(rand.NewSource(seed))
	// The offered load (~175 files/s) stays below the ingest path's
	// capacity on a two-CPU VM even while the shared disk is slow
	// (250-600 files/s measured), so each burst drains before the next.
	const period = 3 * time.Second
	feeds := fleet(120)
	bursts := int(run / period)
	if bursts < 1 {
		bursts = 1
	}
	const warm = 1
	// The tailed feed has 40 pollers, so its freshness is measured over
	// enough files per burst.
	sources := perFeed(rng, len(feeds), 3, 5)
	sources[0] = 40
	byInterval := generate(rng, seed, feeds, sources, 256, 4096, 0, bursts+warm)
	s := &spec{
		name: "poller-bursts", feeds: feeds, subs: []string{"sub1"},
		follow: feeds[0].name,
	}
	// The first interval is an untimed warm-up burst: it creates the
	// per-feed staging and delivery directories a running server has.
	for k, b := range byInterval[:warm] {
		for _, f := range b {
			s.warmup = append(s.warmup, newItem(f, time.Duration(k)*period, 0))
		}
	}
	for k, b := range byInterval[warm:] {
		for _, f := range b {
			s.timed = append(s.timed, newItem(f, time.Duration(k)*period, k))
		}
	}
	return s
}

// backlogDepth is the restart-catchup history: the backlog a new
// subscriber inherits at restart.
const backlogDepth = 8000

// restartCatchup: ~8k files of history with no subscriber; the measured
// server starts with one new subscriber whose backlog is that history,
// while a live trickle keeps arriving on one more feed.
func restartCatchup(seed int64, run time.Duration) *spec {
	rng := rand.New(rand.NewSource(seed))
	feeds := fleet(20)
	hist := generate(rng, seed, feeds, perFeed(rng, len(feeds), 4, 4), 256, 4096, 0, backlogDepth/80)
	trickle := feedDef{name: "TRICKLE", conv: workload.ConvCompactTS}
	s := &spec{
		name: "restart-catchup", feeds: append(feeds, trickle), subs: []string{"sub1"},
		follow:      trickle.name,
		backlogRate: true,
	}
	for _, b := range hist {
		for _, f := range b {
			s.history = append(s.history, newItem(f, 0, 0))
		}
	}
	s.timed = pacedItems(rng, seed, trickle, 5, 20, run)
	return s
}

// pacedItems schedules files of one feed at a fixed open-loop rate,
// rotating over the feed's pollers.
func pacedItems(rng *rand.Rand, seed int64, f feedDef, sources int, perSec float64, run time.Duration) []item {
	n := int(perSec * run.Seconds())
	intervals := (n + sources - 1) / sources
	byInterval := generate(rng, seed, []feedDef{f}, []int{sources}, 256, 4096, 1000, intervals)
	var out []item
	for _, b := range byInterval {
		sort.Slice(b, func(i, j int) bool { return b[i].Source < b[j].Source })
		for _, wf := range b {
			if len(out) == n {
				break
			}
			due := time.Duration(float64(len(out)) / perSec * float64(time.Second))
			out = append(out, newItem(wf, due, 0))
		}
	}
	return out
}

// pullUnderIngest: one feed with a 10k-entry history; deposits arrive
// at 50 files/s while an HTTP client tails the feed's log.
func pullUnderIngest(seed int64, run time.Duration) *spec {
	rng := rand.New(rand.NewSource(seed))
	f := feedDef{name: "LINKUTIL", conv: workload.ConvCompactTS}
	const sources = 50
	hist := generate(rng, seed, []feedDef{f}, []int{sources}, 256, 4096, 0, 200)
	s := &spec{
		name: "pull-under-ingest", feeds: []feedDef{f}, subs: []string{"sub1"}, historySubs: true,
		follow: f.name,
	}
	for _, b := range hist {
		for _, wf := range b {
			s.history = append(s.history, newItem(wf, 0, 0))
		}
	}
	s.timed = pacedItems(rng, seed, f, sources, 50, run)
	return s
}

// largeFiles: batches of pre-gzipped dumps, sizes log-uniform from
// 256 KiB to 32 MiB, each batch due at once when the previous one has
// drained, for the length of the run; two local subscribers. The
// schedule holds more batches than a run reaches (one batch a tenth of
// a second; a batch took 0.2 s or more on a two-CPU VM). Sizes are
// stratified within a batch: one draw per equal slice of the log
// range, the slices in one fixed order for every seed and batch. Every
// batch then moves about the same bytes in the same small/large
// pattern, and the seed varies the sizes within their slices, the
// names and the contents.
func largeFiles(seed int64, run time.Duration) *spec {
	rng := rand.New(rand.NewSource(seed))
	feeds := []feedDef{
		{name: "NETFLOW", conv: workload.ConvUnderscoreTS},
		{name: "BGPDUMP", conv: workload.ConvUnderscoreTS},
		{name: "SYSLOG", conv: workload.ConvUnderscoreTS},
	}
	const perBatch = 12
	batches := int(run/(100*time.Millisecond)) + 1
	byInterval := generate(rng, seed, feeds, []int{1, 1, 1}, 1, 1, 0, batches*perBatch/len(feeds))
	s := &spec{
		name: "large-files", feeds: feeds, subs: []string{"sub1", "sub2"}, batch: true,
		follow: feeds[0].name, run: run,
	}
	const lo, hi = 256 << 10, 32 << 20
	var files []workload.File
	for _, b := range byInterval {
		sort.Slice(b, func(i, j int) bool { return b[i].Feed < b[j].Feed })
		files = append(files, b...)
	}
	strata := rand.New(rand.NewSource(0)).Perm(perBatch)
	for k := 0; k < batches; k++ {
		for i, wf := range files[k*perBatch : (k+1)*perBatch] {
			u := (float64(strata[i]) + rng.Float64()) / perBatch
			it := newItem(wf, 0, k)
			it.large, it.seed = true, rng.Int63()
			it.size = int(math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo))))
			s.timed = append(s.timed, it)
		}
	}
	return s
}

var workloads = map[string]func(seed int64, run time.Duration) *spec{
	"poller-bursts":     pollerBursts,
	"restart-catchup":   restartCatchup,
	"pull-under-ingest": pullUnderIngest,
	"large-files":       largeFiles,
}

// payload renders an item's bytes.
func payload(it item) []byte {
	if !it.large {
		return workload.Payload(it.wf)
	}
	return gzipDump(it.size, it.seed)
}

// gzipDump builds a valid gzip stream of about size bytes: stored
// (uncompressed) deflate blocks over a seeded pseudo-random block that
// repeats with a running counter, so it is cheap to make and does not
// shrink.
func gzipDump(size int, seed int64) []byte {
	block := make([]byte, 64<<10)
	rand.New(rand.NewSource(seed)).Read(block)
	var buf bytes.Buffer
	buf.Grow(size + size/1000 + 64)
	zw, _ := gzip.NewWriterLevel(&buf, gzip.NoCompression)
	raw := size - size/2000 - 32 // leave room for block headers and trailer
	for n := 0; n < raw; n += len(block) {
		block[0], block[1], block[2], block[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		m := len(block)
		if raw-n < m {
			m = raw - n
		}
		zw.Write(block[:m])
	}
	zw.Close()
	return buf.Bytes()
}

func (s *spec) ingestWorkers() int {
	if s.workers == 0 {
		return 2
	}
	return s.workers
}

// configText renders the server configuration for a workload.
func configText(s *spec, withSubs bool) string {
	var b strings.Builder
	for _, f := range s.feeds {
		fmt.Fprintf(&b, "feed %s { pattern %q }\n", f.name, f.conv.Pattern(f.name))
	}
	if withSubs {
		for i, sub := range s.subs {
			fmt.Fprintf(&b, "subscriber %s { dest \"in%d\"", sub, i+1)
			for _, f := range s.feeds {
				fmt.Fprintf(&b, " subscribe %s", f.name)
			}
			b.WriteString(" }\n")
		}
	}
	fmt.Fprintf(&b, "ingest { workers %d }\nhttp { listen \"127.0.0.1:0\" }\n", s.ingestWorkers())
	return b.String()
}

// landingDirs counts the distinct landing directories of a schedule
// and the ingest shards they hash to: the pipeline shards arrivals by
// directory (ingest.SourceKey, FNV-1a modulo the worker count).
func landingDirs(items []item, workers int) (dirs, shards int) {
	seen := make(map[string]bool)
	used := make(map[uint32]bool)
	for _, it := range items {
		key := ingest.SourceKey(it.name)
		if !seen[key] {
			seen[key] = true
			h := fnv.New32a()
			h.Write([]byte(key))
			used[h.Sum32()%uint32(workers)] = true
		}
	}
	return len(seen), len(used)
}
