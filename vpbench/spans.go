package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Request; Parent is the span that caused this one (0: a
// root). Times are nanoseconds since the recorder started.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Request uint64 `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type spanRecorder struct {
	t0    time.Time
	ids   atomic.Uint64
	reqs  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{t0: time.Now()}
}

// newRequest allocates the identifier the spans of one request share.
func (r *spanRecorder) newRequest() uint64 {
	if r == nil {
		return 0
	}
	return r.reqs.Add(1)
}

// newID allocates a span id. A parent takes its id before its children are
// recorded and is itself recorded once it ends.
func (r *spanRecorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records span id with the start and end the caller measured.
func (r *spanRecorder) add(id, parent, req uint64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Request: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// count reports how many spans were recorded.
func (r *spanRecorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeFile writes the recorded spans as JSON lines.
func (r *spanRecorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
