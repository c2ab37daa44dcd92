package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans nest through Parent (0 = root); the stage names follow the
// program's own stage vocabulary (noise, adapt, classify, fit_single,
// fit_combine) so that benchmark rows and program spans use one language.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	M      int           `json:"m,omitempty"`       // parameters of the modeled set
	Count  int           `json:"classes,omitempty"` // hypothesis classes searched
	Flop   float64       `json:"flop,omitempty"`    // computed floating-point operations
	began  time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths share the traced ones.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (nil for a root).
func (t *tracer) begin(name string, parent *span) *span {
	if t == nil {
		return nil
	}
	now := time.Now()
	s := &span{Name: name, began: now, Start: now.Sub(t.origin)}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	s.ID = len(t.spans)
	t.mu.Unlock()
	return s
}

// end closes the span. It is a no-op on a nil span.
func (s *span) end() *span {
	if s != nil {
		s.Dur = time.Since(s.began)
	}
	return s
}

// write stores the spans as JSONL.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// selfTimes returns each span's duration minus the part of its interval that
// its children cover.
func (t *tracer) selfTimes() map[int]time.Duration {
	children := map[int][]*span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		lo, hi := s.Start, s.Start
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.Start+k.Dur, s.Start+s.Dur)
			if ks >= ke {
				continue
			}
			if ks > hi {
				covered += hi - lo
				lo = ks
			}
			hi = max(hi, ke)
		}
		covered += hi - lo
		self[s.ID] = s.Dur - covered
	}
	return self
}

// root returns the outermost ancestor of s.
func (t *tracer) root(s *span) *span {
	for s.Parent != 0 {
		s = t.spans[s.Parent-1]
	}
	return s
}

// durations returns the durations, in seconds, of the spans called name that
// keep passes.
func (t *tracer) durations(name string, keep func(*span) bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, s.Dur.Seconds())
		}
	}
	return out
}

// stageShares returns, for each stage name, its self time summed over the
// spans below roots called rootName, as a share of those roots' total
// duration.
func (t *tracer) stageShares(rootName string, stages []string) map[string]float64 {
	self := t.selfTimes()
	var total time.Duration
	sums := map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			if s.Name == rootName {
				total += s.Dur
			}
			continue
		}
		if t.root(s).Name == rootName {
			sums[s.Name] += self[s.ID]
		}
	}
	out := map[string]float64{}
	for _, st := range stages {
		out[st] = sums[st].Seconds() / total.Seconds()
	}
	return out
}
