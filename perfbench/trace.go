package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanName identifies what a span timed. Operation spans reuse the
// opKind values; the rest are the device calls timedDisk sees.
type spanName uint8

const (
	devPage      = spanName(numKinds) // page-file device, plus one of the call offsets below
	devWAL       = devPage + devCalls // WAL device, plus one of the call offsets below
	numSpanNames = devWAL + devCalls
)

// Device call offsets, added to devPage or devWAL.
const (
	spanRead spanName = iota
	spanWrite
	spanMeta
	spanSync
	devCalls
)

func (n spanName) String() string {
	if n < devPage {
		return opKind(n).String()
	}
	dev, call := "storage.disk", n-devPage
	if n >= devWAL {
		dev, call = "storage.wal", n-devWAL
	}
	return dev + "." + [...]string{"read", "write", "meta", "sync"}[call]
}

// span is one timed interval. Operation spans have parent -1; every
// other span names the operation span it ran under.
type span struct {
	start, end int64 // ns since the tracer's epoch
	op         int32 // the client's operation number
	parent     int32 // index of the parent span in the same tracer
	name       spanName
}

// tracer keeps one client's spans in memory, outside the Go heap; they
// are analysed and written out after the run. A nil *tracer records
// nothing, so the untraced path pays one nil check per call site.
type tracer struct {
	epoch time.Time
	spans arena[span]
	cur   int32 // index of the open operation span, -1 between operations
	ops   int32
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, cur: -1}
}

// now returns the current time, or the zero time when tracing is off.
func (t *tracer) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now() //lint:allow determcheck span timestamps are only reported, never fed back into results
}

func (t *tracer) beginOp(start time.Time) {
	if t == nil {
		return
	}
	t.cur = int32(t.spans.len())
	t.spans.push(span{start: start.Sub(t.epoch).Nanoseconds(), op: t.ops, parent: -1})
}

func (t *tracer) endOp(kind opKind, end time.Time) {
	if t == nil || t.cur < 0 {
		return
	}
	s := t.spans.at(int(t.cur))
	s.end = end.Sub(t.epoch).Nanoseconds()
	s.name = spanName(kind)
	t.cur = -1
	t.ops++
}

// child records a span that started at start and ends now, under the
// open operation.
func (t *tracer) child(name spanName, start time.Time) {
	if t == nil {
		return
	}
	t.spans.push(span{
		start:  start.Sub(t.epoch).Nanoseconds(),
		end:    time.Since(t.epoch).Nanoseconds(), //lint:allow determcheck span timestamps are only reported, never fed back into results
		op:     t.ops,
		parent: t.cur,
		name:   name,
	})
}

// spanTotals aggregates the spans of a traced phase.
type spanTotals struct {
	ops     [numKinds]int
	opNs    [numKinds]float64 // operation span durations
	selfNs  [numKinds]float64 // operation span minus its device children
	calls   [numSpanNames]int
	callNs  [numSpanNames]float64
	devNs   [2]float64 // all page-file / WAL device time
	devOpNs [numKinds][2]float64
}

func devIndex(n spanName) (int, bool) {
	switch {
	case n >= devWAL:
		return 1, true
	case n >= devPage:
		return 0, true
	}
	return 0, false
}

func (st *spanTotals) add(spans *arena[span]) {
	childNs := make([]float64, spans.len())
	for _, part := range spans.parts() {
		for _, s := range part {
			d := float64(s.end - s.start)
			if s.parent < 0 {
				continue
			}
			st.calls[s.name]++
			st.callNs[s.name] += d
			if dev, ok := devIndex(s.name); ok {
				st.devNs[dev] += d
				childNs[s.parent] += d
				st.devOpNs[spans.at(int(s.parent)).name][dev] += d
			}
		}
	}
	i := 0
	for _, part := range spans.parts() {
		for _, s := range part {
			if s.parent < 0 && s.name < spanName(numKinds) && s.end != 0 {
				d := float64(s.end - s.start)
				st.ops[s.name]++
				st.opNs[s.name] += d
				st.selfNs[s.name] += d - childNs[i]
			}
			i++
		}
	}
}

// writeSpans dumps every client's spans as CSV.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client,span,name,start_ns,end_ns,op,parent")
	for c, t := range tracers {
		i := 0
		for _, part := range t.spans.parts() {
			for _, s := range part {
				fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", c, i, s.name, s.start, s.end, s.op, s.parent)
				i++
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush failure is the one worth reporting
		return err
	}
	return f.Close()
}
