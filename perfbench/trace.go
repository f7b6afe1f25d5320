package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans of one op share Op; Parent names the
// span that caused this one (0 for an op's root span). Spans are kept in
// memory and written out when the run ends.
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Cat    string // layer: core, cachewire, runtime, sched, costmodel, sim, nn
	TID    int    // timeline row in the Chrome trace (device, or 0)
	Start  time.Duration
	Dur    time.Duration
}

// recorder collects spans; a nil recorder records nothing, which is how
// the untraced run pays no tracing cost.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(parent, op int, cat, name string, tid int, start time.Time, dur time.Duration) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Cat: cat,
		TID: tid, Start: start.Sub(r.t0), Dur: dur})
	return id
}

// chromeEvent is the Chrome trace-event "X" record internal/trace emits.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args,omitempty"`
}

// writeChrome writes every span as a chrome://tracing JSON array. Ops
// run on pid 0; replays that attribute per-call costs run on pid 1.
func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(r.spans))
	for _, s := range r.spans {
		pid := 0
		if s.Op < 0 {
			pid = 1
		}
		events = append(events, chromeEvent{Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			PID: pid, TID: s.TID, Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
