package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/mddsm/mddsm/internal/obs"
)

// benchSpan is one benchmark-owned span: a public call the benchmark made
// into the system, with the span that caused it and the op it served.
type benchSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records benchmark-owned spans in memory; they are written out
// once, when the run ends. The benchmark drives the system from one
// goroutine, so parentage is a plain stack. A nil *tracer records nothing,
// which is how the untraced phases run.
type tracer struct {
	origin time.Time
	op     int64
	spans  []benchSpan
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// nextOp starts a new op: spans started from now on carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

func (t *tracer) start(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, benchSpan{ID: id, Parent: parent, Op: t.op, Name: name,
		Start: int64(time.Since(t.origin))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.origin))
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// interval is a finished span reduced to what self time needs.
type interval struct {
	id, parent uint64
	name       string
	start, end int64
}

// spanStat aggregates finished spans of one name.
type spanStat struct {
	count int
	total time.Duration
	self  time.Duration
}

func (s spanStat) meanMs() float64 { return ms(s.total) / float64(max(s.count, 1)) }
func (s spanStat) selfMs() float64 { return ms(s.self) / float64(max(s.count, 1)) }

// addSpanStats folds one span tree (ids unique within spans) into stats.
// A span's self time is its duration minus the part of its interval its
// children cover.
func addSpanStats(stats map[string]*spanStat, spans []interval) {
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, s := range spans {
		dur := s.end - s.start
		covered := int64(0)
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		cur := s.start
		for _, k := range kids {
			lo, hi := max(k.start, cur), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		st := stats[s.name]
		if st == nil {
			st = &spanStat{}
			stats[s.name] = st
		}
		st.count++
		st.total += time.Duration(dur)
		st.self += time.Duration(dur - covered)
	}
}

// benchIntervals returns the finished benchmark spans started at or after
// from (relative to the tracer's origin).
func (t *tracer) intervals(from time.Time) []interval {
	cut := int64(from.Sub(t.origin))
	out := make([]interval, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End == 0 || s.Start < cut {
			continue
		}
		out = append(out, interval{id: uint64(s.ID), parent: uint64(s.Parent), name: s.Name, start: s.Start, end: s.End})
	}
	return out
}

// tenantIntervals converts the recent spans a tenant's tracer kept into
// intervals, keeping those started at or after from.
func tenantIntervals(recs []obs.SpanRecord, from time.Time) []interval {
	out := make([]interval, 0, len(recs))
	for _, r := range recs {
		if r.Start.Before(from) {
			continue
		}
		st := r.Start.UnixNano()
		out = append(out, interval{id: uint64(r.ID), parent: uint64(r.Parent), name: r.Name, start: st, end: st + int64(r.Dur)})
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func spanFile(workload string, seed int64) string {
	return fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed)
}
