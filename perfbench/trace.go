package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one served request
// share Req; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced mode: every method is a no-op, so untraced runs execute the same
// code with nothing recorded.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	stack []int64 // open spans of the sequential (tune) path
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// push opens a span on the sequential path, child of the innermost open one,
// and returns the function that closes it.
func (r *recorder) push(layer, name string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	parent := int64(0)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: r.at(time.Now())})
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return func() {
		end := r.at(time.Now())
		r.mu.Lock()
		r.spans[id-1].End = end
		r.stack = r.stack[:len(r.stack)-1]
		r.mu.Unlock()
	}
}

// record adds a finished span of served request req. Its parent is resolved
// by interval containment among the request's spans when the run ends
// (resolveParents), because a request crosses goroutines and the fleet
// router forwards only the query string.
func (r *recorder) record(layer, name string, req int64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: -1, Req: req, Layer: layer, Name: name, Start: r.at(start), End: r.at(end)})
	r.mu.Unlock()
}

// resolveParents nests each request's spans by interval containment: the
// parent of a span is the innermost earlier span of the same request whose
// interval contains it.
func resolveParents(spans []span) {
	byReq := map[int64][]int{}
	for i, s := range spans {
		if s.Parent == -1 {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for _, idx := range byReq {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		var open []int
		for _, i := range idx {
			for len(open) > 0 && spans[open[len(open)-1]].End < spans[i].End {
				open = open[:len(open)-1]
			}
			spans[i].Parent = 0
			if len(open) > 0 {
				spans[i].Parent = spans[open[len(open)-1]].ID
			}
			open = append(open, i)
		}
	}
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	Layer string
	Spans int
	Self  int64 // ns
}

// selfTimes returns each layer's self time: its spans' durations minus the
// part covered by child spans. The self times of all layers sum to the
// summed duration of the root spans.
func selfTimes(spans []span) []layerRow {
	childDur := map[int64]int64{}
	for _, s := range spans {
		if s.Parent > 0 {
			childDur[s.Parent] += s.dur()
		}
	}
	byLayer := map[string]*layerRow{}
	for _, s := range spans {
		row := byLayer[s.Layer]
		if row == nil {
			row = &layerRow{Layer: s.Layer}
			byLayer[s.Layer] = row
		}
		row.Spans++
		row.Self += s.dur() - childDur[s.ID]
	}
	rows := make([]layerRow, 0, len(byLayer))
	for _, row := range byLayer {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}

// layerSelf is one layer's self time in seconds, and whether it has spans.
func layerSelf(rows []layerRow, layer string) (float64, bool) {
	for _, r := range rows {
		if r.Layer == layer {
			return float64(r.Self) / 1e9, true
		}
	}
	return 0, false
}

// finish resolves parents and returns the spans recorded so far.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	resolveParents(r.spans)
	return append([]span(nil), r.spans...)
}

// writeTable renders the per-layer self-time table.
func writeTable(b *strings.Builder, title string, rows []layerRow, wall int64) {
	fmt.Fprintf(b, "== per-layer self time: %s (traced time %.3fs) ==\n", title, float64(wall)/1e9)
	fmt.Fprintf(b, "%-10s %8s %12s %7s\n", "layer", "spans", "self_s", "share")
	for _, row := range rows {
		share := 0.0
		if wall > 0 {
			share = float64(row.Self) / float64(wall)
		}
		fmt.Fprintf(b, "%-10s %8d %12.4f %6.1f%%\n", row.Layer, row.Spans, float64(row.Self)/1e9, 100*share)
	}
}

// writeSpans writes spans as JSON lines to path, and the table beside it.
func writeSpans(path string, spans []span, table string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path+".table.txt", []byte(table), 0o644)
}
