package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bistro/internal/diskfault"
	"bistro/internal/transport"
)

// span is one timed call at a layer seam. Times are nanoseconds since
// the recorder's epoch; G is the calling goroutine, which lets the
// report attribute storage calls to the deposit that caused them.
type span struct {
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Class string `json:"class,omitempty"`
	Path  string `json:"path,omitempty"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
	G     uint64 `json:"g"`
	Bytes int64  `json:"bytes,omitempty"`
	File  uint64 `json:"file,omitempty"`
	Sub   string `json:"sub,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, spans: make([]span, 0, 1<<16)}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// writeTo writes every span as one JSON object per line.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// fsCounts is the per-operation tally of a tracedFS.
type fsCounts struct {
	opens, creates, mkdirs, renames, removes atomic.Int64
	fsyncs, dirFsyncs                        atomic.Int64
	fsyncNanos                               atomic.Int64
	writeBytes, readBytes                    atomic.Int64
}

// tracedFS is a counting, timing diskfault.FS. Every call is counted;
// when rec is non-nil every call is also recorded as a span, with its
// path classified by the first element below root (landing, staging,
// receipts, ...).
type tracedFS struct {
	inner diskfault.FS
	root  string
	rec   *recorder
	n     fsCounts
}

func newTracedFS(inner diskfault.FS, root string, rec *recorder) *tracedFS {
	return &tracedFS{inner: inner, root: filepath.Clean(root), rec: rec}
}

// class names the storage area a path belongs to.
func (t *tracedFS) class(path string) string {
	rel, err := filepath.Rel(t.root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "other"
	}
	if i := strings.IndexByte(rel, filepath.Separator); i >= 0 {
		return rel[:i]
	}
	return rel
}

func (t *tracedFS) span(op, path string, start time.Time, bytes int64) {
	if t.rec == nil {
		return
	}
	end := time.Now()
	t.rec.add(span{Layer: "diskfault", Op: op, Class: t.class(path), Path: path,
		Start: t.rec.since(start), End: t.rec.since(end), G: goid(), Bytes: bytes})
}

func (t *tracedFS) wrap(f diskfault.File, err error) (diskfault.File, error) {
	if err != nil {
		return f, err
	}
	return &tracedFile{File: f, fs: t}, nil
}

func (t *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	t.n.opens.Add(1)
	start := time.Now()
	f, err := t.inner.OpenFile(name, flag, perm)
	t.span("open", name, start, 0)
	return t.wrap(f, err)
}

func (t *tracedFS) Open(name string) (diskfault.File, error) {
	t.n.opens.Add(1)
	start := time.Now()
	f, err := t.inner.Open(name)
	t.span("open", name, start, 0)
	return t.wrap(f, err)
}

func (t *tracedFS) Create(name string) (diskfault.File, error) {
	t.n.opens.Add(1)
	start := time.Now()
	f, err := t.inner.Create(name)
	t.span("open", name, start, 0)
	return t.wrap(f, err)
}

func (t *tracedFS) CreateTemp(dir, pattern string) (diskfault.File, error) {
	t.n.creates.Add(1)
	start := time.Now()
	f, err := t.inner.CreateTemp(dir, pattern)
	t.span("create_temp", dir, start, 0)
	return t.wrap(f, err)
}

func (t *tracedFS) Rename(oldpath, newpath string) error {
	t.n.renames.Add(1)
	start := time.Now()
	err := t.inner.Rename(oldpath, newpath)
	t.span("rename", newpath, start, 0)
	return err
}

func (t *tracedFS) Remove(name string) error {
	t.n.removes.Add(1)
	start := time.Now()
	err := t.inner.Remove(name)
	t.span("remove", name, start, 0)
	return err
}

func (t *tracedFS) MkdirAll(path string, perm os.FileMode) error {
	t.n.mkdirs.Add(1)
	start := time.Now()
	err := t.inner.MkdirAll(path, perm)
	t.span("mkdir_all", path, start, 0)
	return err
}

func (t *tracedFS) Stat(name string) (os.FileInfo, error) {
	start := time.Now()
	fi, err := t.inner.Stat(name)
	t.span("stat", name, start, 0)
	return fi, err
}

func (t *tracedFS) SyncDir(dir string) error {
	t.n.dirFsyncs.Add(1)
	start := time.Now()
	err := t.inner.SyncDir(dir)
	t.span("sync_dir", dir, start, 0)
	return err
}

// tracedFile counts and times the handle calls that move bytes or
// force them to disk.
type tracedFile struct {
	diskfault.File
	fs *tracedFS
}

func (f *tracedFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Read(p)
	f.fs.n.readBytes.Add(int64(n))
	f.fs.span("read", f.Name(), start, int64(n))
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.n.writeBytes.Add(int64(n))
	f.fs.span("write", f.Name(), start, int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	f.fs.n.fsyncs.Add(1)
	start := time.Now()
	err := f.File.Sync()
	f.fs.n.fsyncNanos.Add(int64(time.Since(start)))
	f.fs.span("fsync", f.Name(), start, 0)
	return err
}

func (f *tracedFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	f.fs.span("close", f.Name(), start, 0)
	return err
}

// tracedTransport times every Deliver call of the wrapped transport
// and tracks how many run at once.
type tracedTransport struct {
	inner    transport.Transport
	rec      *recorder
	inflight atomic.Int64
	maxIn    atomic.Int64
}

func (t *tracedTransport) Deliver(sub string, f transport.File) error {
	n := t.inflight.Add(1)
	for {
		m := t.maxIn.Load()
		if n <= m || t.maxIn.CompareAndSwap(m, n) {
			break
		}
	}
	start := time.Now()
	err := t.inner.Deliver(sub, f)
	end := time.Now()
	t.inflight.Add(-1)
	if t.rec != nil {
		op := "deliver"
		if err != nil {
			op = "deliver_failed"
		}
		t.rec.add(span{Layer: "transport", Op: op, Start: t.rec.since(start), End: t.rec.since(end),
			G: goid(), Bytes: f.Size, File: f.FileID, Sub: sub})
	}
	return err
}

func (t *tracedTransport) Notify(sub string, f transport.File) error { return t.inner.Notify(sub, f) }
func (t *tracedTransport) Trigger(sub, command string, paths []string) error {
	return t.inner.Trigger(sub, command, paths)
}
func (t *tracedTransport) Ping(sub string) error { return t.inner.Ping(sub) }
