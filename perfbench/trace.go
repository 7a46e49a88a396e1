package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Times are offsets from the recorder's origin.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"` // -1 for a root span
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the gateway workload's clients record from their own
// goroutines.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(name string, parent int, attrs map[string]string) int {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1, Attrs: attrs})
	return id
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].dur()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of its interval that its direct children
// cover. Overlapping children (concurrent work) are counted once, and
// a child running past its parent's end is clipped to the parent.
// Spans are identified by their index in the slice, which is what
// recorder assigns as ID.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, p := range spans {
		out[i] = p.dur() - covered(p.Start, p.End, children[i])
	}
	return out
}

// covered measures the union of the kids' intervals clipped to
// [start, end].
func covered(start, end time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerTotals sums span durations and self times by span name.
func layerTotals(spans []span) (total, self map[string]time.Duration) {
	st := selfTimes(spans)
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for i, s := range spans {
		total[s.Name] += s.dur()
		self[s.Name] += st[i]
	}
	return total, self
}

// writeTrace writes the spans, with their self times, and the host
// fingerprint as one JSON document at path.
func writeTrace(path string, hdr map[string]any, spans []span) error {
	type row struct {
		span
		SelfNs time.Duration `json:"self_ns"`
	}
	st := selfTimes(spans)
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, st[i]}
	}
	doc := map[string]any{"header": hdr, "spans": rows}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
