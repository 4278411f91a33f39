package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into the program: an HTTP
// request it sent or a layer's public function it called. Times are
// nanoseconds since the run started; Parent is 0 for the run's root.
type span struct {
	Run    string `json:"run"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory until the run writes them
// out. A nil *tracer records nothing, so untraced runs pay one nil check
// per call site. The benchmark sends and times from one goroutine, so the
// tracer is not safe for concurrent use.
type tracer struct {
	run   string
	t0    time.Time
	next  uint64
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now()}
}

// open is a started span that has not ended yet.
type open struct {
	id, parent uint64
	name       string
	start      time.Time
}

// start opens a span under parent (0 for a root) and returns it; its id
// parents further spans.
func (t *tracer) start(name string, parent uint64) open {
	if t == nil {
		return open{}
	}
	t.next++
	return open{id: t.next, parent: parent, name: name, start: time.Now()}
}

// end closes s and keeps it.
func (t *tracer) end(s open) {
	if t == nil {
		return
	}
	now := time.Now()
	sp := span{Run: t.run, ID: s.id, Parent: s.parent, Name: s.name,
		Start: int64(s.start.Sub(t.t0)), End: int64(now.Sub(t.t0))}
	t.spans = append(t.spans, sp)
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is one span name's totals: how often it ran, its summed
// duration, and its summed self time — duration minus the part of its
// interval that its child spans cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name, sorted by descending self time.
func selfTimes(spans []span) []selfTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfTime)
	var order []string
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// kids' intervals covers; overlapping children (concurrent requests) count
// once.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}
