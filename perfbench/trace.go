package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Times are nanoseconds since the run's epoch. A root
// span (parent -1) covers one whole request; its children are the layer
// calls made while serving it. Spans of one request share req.
type span struct {
	name   string
	start  int64
	end    int64
	parent int32 // index of the parent within the request's spans, -1 for the root
	req    uint64
}

// selfTime is a span's duration minus the part of it its children
// cover. Children may nest or overlap each other; the covered part is
// the union of their intervals clipped to the parent.
func selfTime(parent span, children []span) int64 {
	var buf [][2]int64
	return selfTimeBuf(parent, children, &buf)
}

// selfTimeBuf is selfTime with caller-owned interval scratch.
func selfTimeBuf(parent span, children []span, buf *[][2]int64) int64 {
	iv := (*buf)[:0]
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	*buf = iv
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var covered, curS, curE int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curE {
			curE = max(curE, x[1])
			continue
		}
		if open {
			covered += curE - curS
		}
		curS, curE, open = x[0], x[1], true
	}
	if open {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

// tracer collects one worker's spans. Every request's spans feed the
// per-name self-time histograms; the first spanCap spans are also kept
// in memory verbatim and written to the span file when the run ends.
type tracer struct {
	self    map[string]*hist
	kept    []span
	spanCap int
	cur     []span // the request being recorded
	kids    []span // scratch for end
	iv      [][2]int64
	nextReq uint64
	reqBase uint64
}

func newTracer(worker, spanCap int) *tracer {
	return &tracer{self: map[string]*hist{}, spanCap: spanCap, reqBase: uint64(worker) << 48}
}

// begin opens a request's root span.
func (t *tracer) begin(name string, start int64) {
	t.nextReq++
	t.cur = append(t.cur[:0], span{name: name, start: start, parent: -1, req: t.reqBase | t.nextReq})
}

// child records a completed layer call under the request's root.
func (t *tracer) child(name string, start, end int64) {
	t.cur = append(t.cur, span{name: name, start: start, end: end, parent: 0, req: t.cur[0].req})
}

// end closes the root span and folds the request into the statistics.
func (t *tracer) end(end int64) {
	t.cur[0].end = end
	for i, s := range t.cur {
		kids := t.kids[:0]
		for _, c := range t.cur {
			if c.parent == int32(i) {
				kids = append(kids, c)
			}
		}
		t.kids = kids
		h := t.self[s.name]
		if h == nil {
			h = newHist()
			t.self[s.name] = h
		}
		h.record(selfTimeBuf(s, kids, &t.iv))
	}
	if len(t.kept)+len(t.cur) <= t.spanCap {
		t.kept = append(t.kept, t.cur...)
	}
}

// selfP50 merges the tracers' self-time histograms for name.
func selfP50(ts []*tracer, name string) float64 {
	m := newHist()
	for _, t := range ts {
		if h := t.self[name]; h != nil {
			m.merge(h)
		}
	}
	return m.quantile(0.5)
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, t := range ts {
		for _, s := range t.kept {
			fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
				s.name, s.start, s.end, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
