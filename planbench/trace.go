package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps the traced run's spans in memory and writes them out as
// Chrome trace-event JSON (loadable in Perfetto) when the run ends.
type tracer struct {
	origin time.Time
	events []traceEvent
	on     bool // record spans (the first pass only, to bound the file)
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // µs since the run started
	Dur  float64        `json:"dur,omitempty"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer { return &tracer{origin: time.Now(), on: true} }

// span records one complete event. Spans of one request share the
// request id; parent names the span that caused this one.
func (t *tracer) span(name, layer string, start, end time.Time, req int, parent string, args map[string]any) {
	if !t.on {
		return
	}
	if args == nil {
		args = map[string]any{}
	}
	args["req"] = req
	if parent != "" {
		args["parent"] = parent
	}
	t.events = append(t.events, traceEvent{
		Name: name, Cat: layer, Ph: "X",
		Ts:  float64(start.Sub(t.origin).Nanoseconds()) / 1e3,
		Dur: float64(end.Sub(start).Nanoseconds()) / 1e3,
		Pid: 1, Tid: 1, Args: args,
	})
}

// write saves the trace under dir and returns its path. The process
// name carries the machine fingerprint.
func (t *tracer) write(dir, workload string, seed int64, fp string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	meta := traceEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": fmt.Sprintf("planbench %s (%s)", workload, fp)}}
	data, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{append([]traceEvent{meta}, t.events...)})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
