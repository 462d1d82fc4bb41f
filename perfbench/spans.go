package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanLog records host-time spans around the benchmark's calls into the
// layers (build, populate or age, run, audit). Spans stay in memory and
// are written out once, at the end. A nil log records nothing, so the
// timed runs pay only for the clock reads they need anyway.
type spanLog struct {
	t0    time.Time
	trace string // the current cell's trace id
	spans []span
}

type span struct {
	name, trace string
	start, end  time.Duration // since t0
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// since records [start, now] under name and returns now.
func (l *spanLog) since(name string, start time.Time) time.Time {
	now := time.Now()
	l.add(name, start, now)
	return now
}

func (l *spanLog) add(name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{name: name, trace: l.trace, start: start.Sub(l.t0), end: end.Sub(l.t0)})
}

// total returns the summed duration of the spans named name.
func (l *spanLog) total(name string) time.Duration {
	var d time.Duration
	for _, s := range l.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// write saves the spans as Chrome trace-event JSON (loadable in
// Perfetto): one track per trace id, in host microseconds.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\": [")
	tids := map[string]int{}
	for i, s := range l.spans {
		tid, ok := tids[s.trace]
		if !ok {
			tid = len(tids) + 1
			tids[s.trace] = tid
			fmt.Fprintf(w, "\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": %d, \"args\": {\"name\": %q}},", tid, s.trace)
		}
		sep := ","
		if i == len(l.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "\n{\"name\": %q, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"trace_id\": %q}}%s",
			s.name, tid, micros(s.start), micros(s.end-s.start), s.trace, sep)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
