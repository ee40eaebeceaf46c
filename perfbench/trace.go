package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed call into a layer. Spans of one request (a serving
// chunk, a compiled program) share Req; Parent names the span that
// caused this one (0 for a root).
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so the untraced run pays one nil check per
// call site.
type recorder struct {
	epoch time.Time
	spans []Span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: time.Since(r.epoch),
	})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.epoch)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
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

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap each other
// (concurrent work) and may outlive the parent; only the union of their
// intervals clipped to the parent is subtracted.
func selfTimes(spans []Span) (map[string]time.Duration, error) {
	children := map[int][]Span{}
	byID := map[int]bool{}
	for _, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = true
	}
	for _, s := range spans {
		if s.Parent != 0 {
			if !byID[s.Parent] {
				return nil, fmt.Errorf("span %d (%s): unknown parent %d", s.ID, s.Name, s.Parent)
			}
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.Dur() - covered(s, children[s.ID])
	}
	return out, nil
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}
