package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// The benchmark's own spans go through the program's flight recorder
// (internal/obs/trace): one lane per client, a span per verdict named
// "verdict:<kind>" whose identity is the verdict's id, and one child span per
// call into a layer. A nil track (untraced runs) records nothing.

// spanEvents is each lane's ring capacity. A traced window records a few
// thousand events per lane; a dropped event fails the run rather than
// skewing the self times.
const spanEvents = 1 << 16

// timed runs fn inside a span named name under parent on tk and returns fn's
// wall time.
func timed(tk *trace.Track, parent uint64, name string, fn func()) time.Duration {
	id := tk.Begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tk.End(id, name)
	return d
}

// selfTimes returns, per span name (up to any ':'), the summed self time in
// ms: each span's duration minus the part of it that its children cover.
func selfTimes(events []trace.Event) map[string]float64 {
	type span struct {
		name       string
		parent     uint64
		begin, end int64
	}
	spans := map[uint64]*span{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindSpanBegin:
			spans[e.ID] = &span{name: e.Name, parent: e.Parent, begin: e.T, end: -1}
		case trace.KindSpanEnd:
			if s := spans[e.ID]; s != nil {
				s.end = e.T
			}
		}
	}
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.end >= 0 && s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.begin, s.end})
		}
	}
	out := map[string]float64{}
	for id, s := range spans {
		if s.end < 0 {
			continue
		}
		self := s.end - s.begin - covered(kids[id], s.begin, s.end)
		name, _, _ := strings.Cut(s.name, ":")
		out[name] += float64(self) / float64(time.Millisecond)
	}
	return out
}

// covered returns how much of [lo, hi] the union of the intervals covers.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		b, e := max(x[0], cur), min(x[1], hi)
		if e > b {
			total += e - b
			cur = e
		}
	}
	return total
}

// finishSpans writes the recorder's spans as a Chrome trace to path and
// returns the per-name self times, each divided by verdicts.
func finishSpans(rec *trace.Recorder, path string, verdicts float64) (map[string]float64, error) {
	if d := rec.Dropped(); d > 0 {
		return nil, fmt.Errorf("span recorder dropped %d events", d)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := trace.WriteChrome(f, rec); err != nil {
		f.Close()
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	self := selfTimes(rec.Events())
	for k := range self {
		self[k] /= verdicts
	}
	return self, nil
}

// spanMS sums the durations of every span named name in a registry's span
// tree; spanCount counts them.
func spanMS(s *obs.SpanSnapshot, name string) float64 {
	if s == nil {
		return 0
	}
	t := 0.0
	if s.Name == name {
		t = s.DurationMS
	}
	for _, c := range s.Children {
		t += spanMS(c, name)
	}
	return t
}

func spanCount(s *obs.SpanSnapshot, name string) int {
	if s == nil {
		return 0
	}
	n := 0
	if s.Name == name {
		n = 1
	}
	for _, c := range s.Children {
		n += spanCount(c, name)
	}
	return n
}
