package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"time"

	"xymon"
	"xymon/internal/warehouse"
)

// spanName identifies the public call a span wraps.
type spanName uint8

const (
	spanDoc                spanName = iota // one document through the chain
	spanGate                               // Crawler.Gate
	spanCommit                             // Store.CommitXMLBytes
	spanDetect                             // Pipeline.Detect
	spanProcessAlert                       // Manager.ProcessAlert
	spanSubscribe                          // System.Subscribe, split:
	spanManagerSubscribe                   //   Manager.Subscribe
	spanRefreshHints                       //   Crawler.ApplyRefreshHints(Manager.RefreshHints())
	spanUnsubscribe                        // System.Unsubscribe
	spanManagerUnsubscribe                 //   Manager.Unsubscribe
	spanKinds
)

var spanNames = [spanKinds]string{
	"doc", "crawler.gate", "warehouse.commit", "alerter.detect", "manager.process_alert",
	"subscribe", "manager.subscribe", "manager.refresh_hints", "unsubscribe", "manager.unsubscribe",
}

// Commit tiers, from the Store.Stats() counter that moved during the
// commit span.
const (
	tierNone   = 0 // new page, or the canonical comparison found no change
	tierRawSig = 1 // byte-identical: raw signature
	tierStruct = 2 // structurally identical: streaming hash
	tierParse  = 3 // parsed; compared canonically
	tierDiff   = 4 // parsed and diffed: a real change
	tierError  = -1
)

// span is one traced call. Spans of one document share doc (its op
// index); parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       spanName
	parent     int32
	doc        int32
	start, end int64 // feeder CPU ns since the tracer's epoch
	// note is the call's outcome: gate 0/1 admitted; commit tier; detect
	// event count (negative for a weak-only alert, 0 for none); process
	// alert notifications; doc reports delivered.
	note int32
}

// reporterCounts are the Reporter's public counters, read at document
// boundaries.
type reporterCounts struct {
	delivered, failed, journalErrors, streamed uint64
}

func (c reporterCounts) minus(b reporterCounts) reporterCounts {
	return reporterCounts{c.delivered - b.delivered, c.failed - b.failed, c.journalErrors - b.journalErrors, c.streamed - b.streamed}
}

// tracer keeps every span in memory; write dumps them when the run ends.
// Span times are the feeder thread's CPU clock (threadCPU), like every
// other duration of the benchmark.
type tracer struct {
	epoch time.Duration
	spans []span
	// setup is the number of spans recorded during set-up (subscription
	// registration); the timed phase's spans follow it.
	setup int
	// rep sums the per-document reporter counter deltas.
	rep reporterCounts
}

func newTracer() *tracer {
	return &tracer{epoch: threadCPU(), spans: make([]span, 0, 1<<18)}
}

func (t *tracer) now() int64 { return int64(threadCPU() - t.epoch) }

func (t *tracer) begin(name spanName, parent, doc int) int {
	t.spans = append(t.spans, span{name: name, parent: int32(parent), doc: int32(doc), start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].end = t.now() }

func (t *tracer) endWith(i, note int) {
	t.spans[i].end = t.now()
	t.spans[i].note = int32(note)
}

func (t *tracer) endDoc(i int, d reporterCounts) {
	t.endWith(i, int(d.delivered))
	t.rep.delivered += d.delivered
	t.rep.failed += d.failed
	t.rep.journalErrors += d.journalErrors
	t.rep.streamed += d.streamed
}

func (t *tracer) setupDone() { t.setup = len(t.spans) }

func (t *tracer) reporterCounters(sys *xymon.System) reporterCounts {
	delivered, failed := sys.Reporter.Stats()
	published, _ := sys.Reporter.StreamStats()
	return reporterCounts{delivered, failed, sys.Reporter.JournalErrors(), published}
}

// tierOf names the warehouse tier that resolved a commit from the
// Store.Stats() counters before and after it.
func tierOf(before, after warehouse.Stats, err error) int {
	switch {
	case err != nil:
		return tierError
	case after.SkippedRawSig > before.SkippedRawSig:
		return tierRawSig
	case after.SkippedStructHash > before.SkippedStructHash:
		return tierStruct
	case after.Diffed > before.Diffed:
		return tierDiff
	case after.Parsed > before.Parsed:
		return tierParse
	}
	return tierNone
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var b []byte
	for i, s := range t.spans {
		b = b[:0]
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"name":"`...)
		b = append(b, spanNames[s.name]...)
		b = append(b, `","parent":`...)
		b = strconv.AppendInt(b, int64(s.parent), 10)
		b = append(b, `,"doc":`...)
		b = strconv.AppendInt(b, int64(s.doc), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"note":`...)
		b = strconv.AppendInt(b, int64(s.note), 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			_ = f.Close() // the write error wins
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error wins
		return err
	}
	return f.Close()
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	us    []float64 // durations
	busy  float64   // summed self time, µs
	notes []int32
}

func (l *layerStats) p(q float64) float64 { return percentile(l.us, q) }

func (l *layerStats) add(us, self float64, note int32) {
	l.us = append(l.us, us)
	l.busy += self
	l.notes = append(l.notes, note)
}

// layers groups spans by name: timed holds the timed phase's spans, all
// adds the set-up's (subscription registration latencies use both).
func (t *tracer) layers() (timed, all [spanKinds]layerStats) {
	// Self time: a span's duration minus its children's.
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := float64(s.end-s.start) / 1e3
		self := float64(s.end-s.start-child[i]) / 1e3
		all[s.name].add(d, self, s.note)
		if i >= t.setup {
			timed[s.name].add(d, self, s.note)
		}
	}
	for i := range timed {
		sort.Float64s(timed[i].us)
		sort.Float64s(all[i].us)
	}
	return timed, all
}

// elapsed is the traced phase's feeder CPU time in µs: first to last
// timed span.
func (t *tracer) elapsed() float64 {
	if len(t.spans) <= t.setup {
		return 0
	}
	first, last := t.spans[t.setup].start, int64(0)
	for _, s := range t.spans[t.setup:] {
		last = max(last, s.end)
	}
	return float64(last-first) / 1e3
}
