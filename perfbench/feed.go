package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xymon"
	"xymon/internal/alerter"
)

// tally is the subscriber's side of a System: the reports delivered and
// the notifications they carried, per subscription.
type tally struct {
	mu      sync.Mutex
	reports int
	notes   int // notifications carried by the reports
	bySub   map[string]int
}

func newTally() *tally { return &tally{bySub: map[string]int{}} }

// Deliver implements xymon.Delivery.
func (t *tally) Deliver(rep *xymon.Report) error {
	t.mu.Lock()
	t.reports++
	t.notes += rep.Notifications
	t.bySub[rep.Subscription] += rep.Notifications
	t.mu.Unlock()
	return nil
}

// outcome is what a run's output is checked on: notification counts per
// subscription (delivered plus still buffered) and the report count.
type outcome struct {
	ops     int
	reports int
	bySub   map[string]int
	// produced sums the notification counts the chain returned per
	// document; it must equal the sum over bySub.
	produced int
}

func (o outcome) total() int {
	n := 0
	for _, c := range o.bySub {
		n += c
	}
	return n
}

// diff describes how o differs from ref; "" when they agree.
func (o outcome) diff(ref outcome) string {
	if o.ops != ref.ops {
		return fmt.Sprintf("replayed %d ops, reference %d", o.ops, ref.ops)
	}
	if o.reports != ref.reports {
		return fmt.Sprintf("%d reports, reference %d", o.reports, ref.reports)
	}
	if !reflect.DeepEqual(o.bySub, ref.bySub) {
		var bad []string
		for name, c := range o.bySub {
			if ref.bySub[name] != c {
				bad = append(bad, name)
			}
		}
		for name := range ref.bySub {
			if _, ok := o.bySub[name]; !ok {
				bad = append(bad, name)
			}
		}
		sort.Strings(bad)
		name := bad[0]
		return fmt.Sprintf("%d subscriptions differ, e.g. %s: %d notifications, reference %d",
			len(bad), name, o.bySub[name], ref.bySub[name])
	}
	return ""
}

// virtualEpoch is the start of the systems' virtual clock. Every op
// advances it by one virtual second, so time-dependent behaviour is a
// function of the op sequence alone.
var virtualEpoch = time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)

// feeder drives one System through a workload from a single goroutine:
// a closed loop, the next op issued when the previous one returns.
type feeder struct {
	w     *workload
	sys   *xymon.System
	tally *tally
	dir   string // DurableDir, "" when in memory
	// next is the global op index; the virtual clock reads it.
	next int
	// live is the FIFO of subscriptions opUnsubscribe removes from.
	live     []string
	produced int
	// tr records spans when the feeder is traced.
	tr *tracer
	// noHints skips the crawler refresh-hint update of System.Subscribe
	// (the reference system: the feeder never consults the crawler's
	// schedule, and re-aggregating the hints over a large base would
	// dominate the check's cost).
	noHints bool
}

// sysKind selects the options a System is built with.
type sysKind int

const (
	sysFast      sysKind = iota // the default system: every fast path on
	sysReference                // AlwaysParse + AlwaysDiff, no durability
)

// newFeeder builds a System for w and sets it up: xymon.New, the base
// registered through System.Subscribe, and the priming documents
// committed. dir is the durable directory for durable workloads on the
// fast system.
func newFeeder(w *workload, kind sysKind, dir string, tr *tracer) (*feeder, error) {
	f := &feeder{w: w, tally: newTally(), tr: tr}
	opts := xymon.Options{
		Clock:    func() time.Time { return virtualEpoch.Add(time.Duration(f.next) * time.Second) },
		Delivery: f.tally,
	}
	switch kind {
	case sysFast:
		if w.durable {
			f.dir = dir
			opts.DurableDir = dir
		}
	case sysReference:
		opts.AlwaysParse, opts.AlwaysDiff = true, true
		f.noHints = true
	}
	sys, err := xymon.New(opts)
	if err != nil {
		return nil, fmt.Errorf("xymon.New: %w", err)
	}
	f.sys = sys
	for i, src := range w.subs {
		if err := f.subscribe(src); err != nil {
			_ = f.close() // the registration error wins
			return nil, fmt.Errorf("base subscription %d: %w", i, err)
		}
		f.live = append(f.live, nameOf(src))
	}
	if f.tr != nil {
		f.tr.setupDone()
	}
	for i, o := range w.prime {
		if _, err := f.doc(o, -1); err != nil {
			_ = f.close() // the priming error wins
			return nil, fmt.Errorf("priming document %d: %w", i, err)
		}
	}
	return f, nil
}

// nameOf returns the name of a subscription source ("subscription Name").
func nameOf(src string) string {
	name, _, _ := strings.Cut(strings.TrimPrefix(src, "subscription "), "\n")
	return name
}

func (f *feeder) close() error {
	err := f.sys.Close()
	if f.dir != "" {
		if rerr := os.RemoveAll(f.dir); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// step runs the next op. isDoc reports whether it carried a document,
// notes the notifications it produced; err is a failed operation.
func (f *feeder) step() (isDoc bool, notes int, err error) {
	o := f.w.ops[f.next%len(f.w.ops)]
	id := f.next
	f.next++
	switch o.kind {
	case opFetch, opPush:
		notes, err = f.doc(o, id)
		return true, notes, err
	case opSubscribe:
		name := "Churn" + strconv.Itoa(id)
		err = f.subscribe("subscription " + name + o.body)
		if err == nil {
			f.live = append(f.live, name)
		}
		return false, 0, err
	}
	if len(f.live) == 0 {
		return false, 0, fmt.Errorf("op %d: no subscription left to remove", id)
	}
	name := f.live[0]
	f.live = f.live[1:]
	return false, 0, f.unsubscribe(name)
}

// subscribe is System.Subscribe; traced, it is split into its public
// parts with the same behaviour.
func (f *feeder) subscribe(src string) error {
	if f.noHints {
		_, err := f.sys.Manager.Subscribe(src)
		return err
	}
	if f.tr == nil {
		_, err := f.sys.Subscribe(src)
		return err
	}
	root := f.tr.begin(spanSubscribe, -1, -1)
	s := f.tr.begin(spanManagerSubscribe, root, -1)
	_, err := f.sys.Manager.Subscribe(src)
	f.tr.end(s)
	if err == nil {
		s = f.tr.begin(spanRefreshHints, root, -1)
		f.sys.Crawler.ApplyRefreshHints(f.sys.Manager.RefreshHints())
		f.tr.end(s)
	}
	f.tr.end(root)
	return err
}

func (f *feeder) unsubscribe(name string) error {
	if f.tr == nil {
		return f.sys.Unsubscribe(name)
	}
	root := f.tr.begin(spanUnsubscribe, -1, -1)
	s := f.tr.begin(spanManagerUnsubscribe, root, -1)
	err := f.sys.Manager.Unsubscribe(name)
	f.tr.end(s)
	f.tr.end(root)
	return err
}

// doc carries one document through the chain and returns the number of
// notifications it produced. id is the op index (-1 while priming).
func (f *feeder) doc(o op, id int) (int, error) {
	if f.tr != nil && id >= 0 {
		return f.tracedDoc(o, id)
	}
	d := o.doc
	if o.kind == opPush {
		n, err := f.sys.PushXML(d.url, d.dtd, d.domain, d.text)
		f.produced += n
		return n, err
	}
	// The crawler's fetch path (crawler.fetch): the ingest gate, and for
	// an admitted page the commit and ProcessDoc. A nil gate
	// (Options.AlwaysParse) admits every page.
	if gate := f.sys.Crawler.Gate; gate != nil && !gate(d.url, d.dtd, d.domain, d.data) {
		return 0, nil
	}
	res, err := f.sys.Store.CommitXMLBytes(d.url, d.dtd, d.domain, d.data)
	if err != nil {
		return 0, err
	}
	n := f.sys.Manager.ProcessDoc(&alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta})
	f.produced += n
	return n, nil
}

// tracedDoc is doc with every public call in its own span: PushXML split
// into Store.CommitXMLBytes + Manager.ProcessDoc, and ProcessDoc into
// Pipeline.Detect + Manager.ProcessAlert (strong alerts only).
func (f *feeder) tracedDoc(o op, id int) (int, error) {
	tr, sys, d := f.tr, f.sys, o.doc
	root := tr.begin(spanDoc, -1, id)
	rep0 := tr.reporterCounters(sys)
	defer func() { tr.endDoc(root, tr.reporterCounters(sys).minus(rep0)) }()
	data := d.data
	if o.kind == opPush {
		// PushXML converts its string argument; so does the split path.
		data = []byte(d.text)
	} else if gate := sys.Crawler.Gate; gate != nil {
		s := tr.begin(spanGate, root, id)
		admit := gate(d.url, d.dtd, d.domain, data)
		tr.endWith(s, b2i(admit))
		if !admit {
			return 0, nil
		}
	}
	s := tr.begin(spanCommit, root, id)
	ws0 := sys.Store.Stats()
	res, err := sys.Store.CommitXMLBytes(d.url, d.dtd, d.domain, data)
	tr.endWith(s, tierOf(ws0, sys.Store.Stats(), err))
	if err != nil {
		return 0, err
	}
	s = tr.begin(spanDetect, root, id)
	a := sys.Pipeline.Detect(&alerter.Doc{Meta: res.Meta, Status: res.Status, Doc: res.Doc, Delta: res.Delta})
	switch {
	case a == nil:
		tr.endWith(s, 0)
		return 0, nil
	case !a.Strong:
		tr.endWith(s, -len(a.Events))
		return 0, nil
	}
	tr.endWith(s, len(a.Events))
	s = tr.begin(spanProcessAlert, root, id)
	n := sys.Manager.ProcessAlert(a)
	tr.endWith(s, n)
	f.produced += n
	return n, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// outcome collects the run's checked output: delivered notifications plus
// those still buffered for live subscriptions.
func (f *feeder) outcome() outcome {
	f.tally.mu.Lock()
	o := outcome{ops: f.next, reports: f.tally.reports, produced: f.produced, bySub: make(map[string]int, len(f.tally.bySub))}
	for name, c := range f.tally.bySub {
		o.bySub[name] = c
	}
	f.tally.mu.Unlock()
	for _, name := range f.sys.Manager.Subscriptions() {
		if b := f.sys.Reporter.Buffered(name); b > 0 {
			o.bySub[name] += b
		}
	}
	return o
}

// delivered returns the reports delivered so far and the notifications
// they carried.
func (t *tally) delivered() (reports, notes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reports, t.notes
}

// errorsNow counts failures the system recorded itself: failed report
// deliveries and reporter journal errors.
func (f *feeder) errorsNow() uint64 {
	_, failed := f.sys.Reporter.Stats()
	return failed + f.sys.Reporter.JournalErrors()
}

// replayReference runs ops [0, n) on a fresh reference System and returns its
// outcome.
func replayReference(w *workload, n int) (outcome, error) {
	ref, err := newFeeder(w, sysReference, "", nil)
	if err != nil {
		return outcome{}, fmt.Errorf("reference set-up: %w", err)
	}
	defer func() { _ = ref.close() }() // in memory: nothing to release
	for ref.next < n {
		if _, _, err := ref.step(); err != nil {
			return outcome{}, fmt.Errorf("reference op %d: %w", ref.next-1, err)
		}
	}
	return ref.outcome(), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a file removed mid-walk (compaction) counts as 0
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
