package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"rnascale/internal/obs/perf"
)

// DefaultBatchSize is the group-commit batch bound when the caller
// does not choose one: up to this many concurrent appends share one
// write+fsync.
const DefaultBatchSize = 64

// ErrClosed is returned by Append on a closed writer.
var ErrClosed = errors.New("journal: writer closed")

// Options tunes the group-commit window of a durable Writer.
type Options struct {
	// BatchSize caps the records coalesced into one write+fsync.
	// <= 0 means DefaultBatchSize; 1 degenerates to the classic
	// fsync-per-append writer.
	BatchSize int
	// MaxWait is how long a flush lingers to fill its batch after the
	// first record arrives. Zero (the default) flushes whatever has
	// queued the moment the flusher is free — batching then emerges
	// naturally under contention (appends arriving during an fsync
	// ride the next one) and a lone appender never waits. Positive
	// values trade per-append latency for fuller batches.
	MaxWait time.Duration
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	return o
}

// pendingAppend is one enqueued record awaiting durability.
type pendingAppend struct {
	line []byte
	done chan error
}

// Writer appends records to a journal, stamping each with its
// sequence number and hash-chain digest. Appends are durable before
// they return: when the journal is synced (file-backed), the record
// has been written and fsynced — possibly sharing the fsync with a
// batch of concurrent appenders (group commit) — so a record handed
// to Append survives a crash of the writer's process.
//
// The writer is fail-stop: the first write or sync error poisons it,
// and every subsequent Append returns that original error. A failed
// write may have left partial bytes at the tail; appending after
// them would fuse records, so the only safe continuation is a fresh
// Continue, which truncates the tail to the last chain-verified
// record.
type Writer struct {
	opts Options

	mu      sync.Mutex
	w       io.Writer
	file    *os.File     // non-nil when file-backed
	syncFn  func() error // nil = no durability beyond the sink
	seq     int
	chain   string
	err     error // sticky fail-stop error
	closed  bool
	pending []pendingAppend

	// Group-commit machinery, nil for unsynced (sink-only) writers —
	// with no fsync to amortize they write synchronously instead.
	wake        chan struct{}
	flusherDone chan struct{}
	buf         []byte // flusher's reusable coalescing buffer
}

// NewWriter returns a Writer over an arbitrary sink (no durability
// beyond the sink itself). With no fsync to amortize, appends write
// through synchronously. Used by tests and in-memory callers.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, chain: ChainSeed(), opts: Options{}.withDefaults()}
}

// NewSyncedWriter returns a group-committing Writer over a sink with
// an explicit sync hook — the seam benchmarks and tests use to count
// or simulate fsyncs.
func NewSyncedWriter(w io.Writer, sync func() error, opts Options) *Writer {
	wr := &Writer{w: w, syncFn: sync, chain: ChainSeed(), opts: opts.withDefaults()}
	wr.startFlusher()
	return wr
}

// Create creates (truncating) a file-backed journal at path with
// default group-commit options.
func Create(path string) (*Writer, error) { return CreateOptions(path, Options{}) }

// CreateOptions creates (truncating) a file-backed journal at path.
func CreateOptions(path string, opts Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{w: f, file: f, syncFn: f.Sync, chain: ChainSeed(), opts: opts.withDefaults()}
	w.startFlusher()
	return w, nil
}

func (w *Writer) startFlusher() {
	w.wake = make(chan struct{}, 1)
	w.flusherDone = make(chan struct{})
	go w.flusher()
}

// Continue opens an existing journal for resumption: it reads the
// surviving prefix and returns it alongside a Writer that appends
// after it, numbering and chaining records where the prefix left
// off. A damaged tail is repaired in place before the writer is
// armed — a torn or unverifiable suffix is truncated back to the
// last chain-verified record, and a final record that lost only its
// trailing newline gets the newline restored (without it, the
// O_APPEND write of the next record would fuse onto the same line
// and corrupt the journal). Log.Repair describes what was done.
func Continue(path string) (*Log, *Writer, error) { return ContinueOptions(path, Options{}) }

// ContinueOptions is Continue with explicit group-commit options.
func ContinueOptions(path string, opts Options) (*Log, *Writer, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	res := scan(b)
	lg, err := res.log(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if res.goodEnd < res.total {
		// Unverifiable tail: cut back to the chain-verified prefix.
		// (ftruncate addresses an absolute offset; O_APPEND only
		// affects where subsequent writes land.)
		if err := f.Truncate(int64(res.goodEnd)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate damaged tail: %w", err)
		}
	}
	if res.missingNewline {
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: restore final newline: %w", err)
		}
	}
	if lg.Repair != nil {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: sync repair: %w", err)
		}
	}
	w := &Writer{
		w: f, file: f, syncFn: f.Sync,
		seq:   len(lg.Records),
		chain: lg.ChainHead(),
		opts:  opts.withDefaults(),
	}
	w.startFlusher()
	return lg, w, nil
}

// Append stamps the record's sequence number and chain digest,
// writes it as one JSON line and makes it durable before returning.
// Concurrent appends may share a single write+fsync (group commit);
// each still only returns once its own record is down. The stamped
// record is returned.
func (w *Writer) Append(rec Record) (Record, error) {
	defer perf.Region("journal.append").End()
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return rec, err
	}
	if w.closed {
		w.mu.Unlock()
		return rec, ErrClosed
	}
	rec.Seq = w.seq
	rec.Chain = ""
	if rec.Digest == "" && len(rec.Payload) > 0 {
		// Readers verify the payload digest on every record that
		// carries a payload; stamp it for callers that did not.
		rec.Digest = Digest(rec.Payload)
	}
	body, err := json.Marshal(rec)
	if err != nil {
		// Nothing reached the sink: the writer stays usable and the
		// sequence number is not consumed.
		w.mu.Unlock()
		return rec, fmt.Errorf("journal: marshal record %d: %w", rec.Seq, err)
	}
	rec.Chain = chainNext(w.chain, body)
	line := spliceChain(body, rec.Chain)
	w.seq++
	w.chain = rec.Chain

	if w.wake == nil {
		// Unsynced sink: write through synchronously.
		err := w.writeLocked(line)
		w.mu.Unlock()
		return rec, err
	}
	done := make(chan error, 1)
	w.pending = append(w.pending, pendingAppend{line: line, done: done})
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return rec, <-done
}

// writeLocked is the synchronous path for unsynced writers; the
// caller holds w.mu. A write error poisons the writer: partial bytes
// may have reached the sink.
func (w *Writer) writeLocked(line []byte) error {
	if _, err := w.w.Write(line); err != nil {
		w.err = fmt.Errorf("journal: append record %d: %w", w.seq-1, err)
		return w.err
	}
	return nil
}

// flusher drains pending appends in batches: one write+fsync per
// batch, every batch member notified with the outcome.
func (w *Writer) flusher() {
	defer close(w.flusherDone)
	for {
		<-w.wake
		for w.flushOnce() {
		}
		w.mu.Lock()
		exit := w.closed && len(w.pending) == 0
		w.mu.Unlock()
		if exit {
			return
		}
	}
}

// flushOnce commits one batch. It reports whether anything was
// pending (false stops the drain loop).
func (w *Writer) flushOnce() bool {
	w.mu.Lock()
	if len(w.pending) == 0 {
		w.mu.Unlock()
		return false
	}
	if w.err != nil {
		// Poisoned: fail everything queued with the original error.
		batch := w.pending
		w.pending = nil
		err := w.err
		w.mu.Unlock()
		for _, p := range batch {
			p.done <- err
		}
		return true
	}
	max := w.opts.BatchSize
	if w.opts.MaxWait > 0 && len(w.pending) < max && !w.closed {
		w.mu.Unlock()
		w.fillWindow(max)
		w.mu.Lock()
	}
	n := len(w.pending)
	if n > max {
		n = max
	}
	batch := w.pending[:n:n]
	w.pending = w.pending[n:]
	w.mu.Unlock()

	buf := w.buf[:0]
	for _, p := range batch {
		buf = append(buf, p.line...)
	}
	w.buf = buf
	_, werr := w.w.Write(buf)
	if werr == nil && w.syncFn != nil {
		werr = w.syncFn()
	}
	if werr != nil {
		werr = fmt.Errorf("journal: append batch of %d: %w", n, werr)
		w.mu.Lock()
		if w.err == nil {
			w.err = werr
		} else {
			werr = w.err
		}
		w.mu.Unlock()
	}
	for _, p := range batch {
		p.done <- werr
	}
	return true
}

// fillWindow lingers up to MaxWait for the batch to fill. Wake
// signals consumed here are not lost: the caller re-examines pending
// under the lock, and the drain loop runs until pending is empty.
func (w *Writer) fillWindow(max int) {
	deadline := time.NewTimer(w.opts.MaxWait)
	defer deadline.Stop()
	for {
		w.mu.Lock()
		full := len(w.pending) >= max || w.closed
		w.mu.Unlock()
		if full {
			return
		}
		select {
		case <-w.wake:
		case <-deadline.C:
			return
		}
	}
}

// Seq returns the sequence number the next Append will stamp.
func (w *Writer) Seq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// ChainHead returns the chain digest of the last stamped record (the
// value Verify reports for an intact journal).
func (w *Writer) ChainHead() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chain
}

// Err returns the writer's sticky append error, nil while healthy.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close drains pending appends, stops the flusher and closes the
// underlying file, if any. Safe to call more than once.
//
// Once the flusher has exited, Close drops its coalescing buffer and
// the pending queue's backing array: a closed writer stays reachable
// from whatever holds it (a finished run's config), and would
// otherwise pin its largest batch for as long as that lives.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	hasFlusher := w.wake != nil
	w.mu.Unlock()
	if hasFlusher {
		select {
		case w.wake <- struct{}{}:
		default:
		}
		<-w.flusherDone
		// Appends after closed fail before touching pending, and the
		// flusher drained it and exited: nothing uses either again.
		w.mu.Lock()
		w.buf, w.pending = nil, nil
		w.mu.Unlock()
	}
	if w.file != nil {
		return w.file.Close()
	}
	return nil
}
