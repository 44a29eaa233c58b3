package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps the traced run's spans in memory; write dumps them as
// JSONL at the end. Every span carries the run's ID. All methods are
// no-ops on a nil tracer, so untraced runs call them unconditionally.
type tracer struct {
	runID string
	mu    sync.Mutex
	spans []span
}

// span is one timed call across a layer boundary. Parent is the ID of
// the span that caused it (0 for a root).
type span struct {
	Run    string    `json:"run"`
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func newTracer(runID string) *tracer { return &tracer{runID: runID} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Run: t.runID, ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// selfTimes returns, per span name, the summed duration and the summed
// self time: each span's duration minus the part of it its children
// cover (overlapping children are counted once).
func (t *tracer) selfTimes() (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	if t == nil {
		return total, self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		d := s.End.Sub(s.Start)
		total[s.Name] += d
		self[s.Name] += d - covered(s, children[s.ID])
	}
	return total, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var cov time.Duration
	var curS, curE time.Time
	open := false
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		if open && !s.After(curE) {
			if e.After(curE) {
				curE = e
			}
			continue
		}
		if open {
			cov += curE.Sub(curS)
		}
		curS, curE, open = s, e, true
	}
	if open {
		cov += curE.Sub(curS)
	}
	return cov
}

// unattributed is the share of the named root spans' time that none of
// their children covers.
func (t *tracer) unattributed(root string) float64 {
	return t.unattributedIn(root, root)
}

// unattributedIn is the summed self time of the named spans as a share
// of the root spans' time: the part of the root no measured layer
// below those spans accounts for.
func (t *tracer) unattributedIn(root string, names ...string) float64 {
	total, self := t.selfTimes()
	if total[root] <= 0 {
		return 0
	}
	var s time.Duration
	for _, n := range names {
		s += self[n]
	}
	return float64(s) / float64(total[root])
}

// importCoreSpans parses the JSONL span records internal/core's Tracer
// wrote during one call and records each as a child of parent, named
// "core.<phase>".
func (t *tracer) importCoreSpans(data []byte, parent int) error {
	if t == nil {
		return nil
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var rec struct {
			Type    string `json:"type"`
			Name    string `json:"name"`
			StartUS int64  `json:"start_us"`
			DurUS   int64  `json:"dur_us"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("core trace record: %w", err)
		}
		if rec.Type != "span" {
			continue
		}
		start := time.UnixMicro(rec.StartUS)
		t.add("core."+rec.Name, parent, start, start.Add(time.Duration(rec.DurUS)*time.Microsecond))
	}
	return sc.Err()
}

// write dumps every span as one JSON line into dir and returns the path.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.runID+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
