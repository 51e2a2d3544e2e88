// Command perfbench is the repository benchmark: it drives one xymon
// System from a single feeder goroutine (a closed loop) through its public
// entry points on a workload pre-rendered from a seed, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics of a
// separately traced run. Every run is checked against a reference System
// built with the slow paths (AlwaysParse + AlwaysDiff) fed the same ops.
//
//	bash perfbench/run.sh --workload crawl --seed 1 --seconds 5 --trace 0
//
// The last line of standard output is the JSON result; the lines before it
// list each metric with its unit and sample count, and the machine
// fingerprint. See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       size
	// workDir holds the durable directories of the run; removed at exit.
	workDir  string
	traceOut string
}

// metric is one reported figure; n is its sample count (0 for a count or
// ratio) and is printed, not part of the JSON.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// order is the metrics' print order; mismatch says why Correct is
	// false; extra are printed figures outside the JSON.
	order    []string
	mismatch string
	extra    []string
}

// info records a figure that is printed but is not a benchmark metric.
func (r *result) info(name, unit string, v float64, n int) {
	r.extra = append(r.extra, fmt.Sprintf("%-36s %14.4f %-8s n=%d (printed, not gated)", name, v, unit, n))
}

func (r *result) add(name, unit string, v float64, n int) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit, n: n}
	r.order = append(r.order, name)
}

// windowedLatency returns the median over windows of each window's p50
// and p99, and the total sample count.
func windowedLatency(wins [][]float64) (p50, p99 float64, n int) {
	var p50s, p99s []float64
	for _, w := range wins {
		s := sorted(w)
		n += len(s)
		p50s = append(p50s, percentile(s, 0.50))
		p99s = append(p99s, percentile(s, 0.99))
	}
	return percentile(sorted(p50s), 0.5), percentile(sorted(p99s), 0.5), n
}

// addLatency adds name_p50_us and name_p99_us over windowed samples.
func (r *result) addLatency(name string, wins [][]float64) {
	p50, p99, n := windowedLatency(wins)
	r.add(name+"_p50_us", "us", p50, n)
	r.add(name+"_p99_us", "us", p99, n)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload: one of %v", workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are rendered from")
	flag.Float64Var(&cfg.seconds, "seconds", 5, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: run the traced per-layer measurement instead of the end-to-end one")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span dump of a traced run (default .bench_build/perfbench/trace-<workload>.jsonl)")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.workDir = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid()))
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "perfbench", "trace-"+cfg.workload+".jsonl")
	}
	res, fp, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Printf("%-36s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	fmt.Printf("%-36s %14.6f %-8s n=%d\n", "error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Attempted)
	for _, line := range res.extra {
		fmt.Println(line)
	}
	fpJSON, err := json.Marshal(fp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("fingerprint %s\n", fpJSON)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: reference check failed:", res.mismatch)
		os.Exit(1)
	}
}

// run renders the workload and measures it. The whole run stays on one
// OS thread, whose CPU clock times every set-up, op and span.
func run(cfg config) (*result, fingerprint, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sz)
	if err != nil {
		return nil, fingerprint{}, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, fingerprint{}, err
	}
	fp := machine(cfg.workDir)
	var res *result
	if cfg.trace {
		res, err = runTraced(cfg, w)
	} else {
		res, err = runEndToEnd(cfg, w)
	}
	if rerr := os.RemoveAll(cfg.workDir); rerr != nil && err == nil {
		err = rerr
	}
	return res, fp, err
}

// slices is the number of equal wall-time slices a timed phase is
// recorded in. After the run, consecutive slices are grouped into windows
// of at least minWindow samples; rates and latency percentiles are taken
// per window and the median over windows is reported, so a burst of
// interference moves one window, not the result.
const (
	slices    = 20
	minWindow = 1000 // a p99 with at least ten samples beyond it
)

// nWindows is how many windows n samples are grouped into.
func nWindows(n int) int { return min(max(n/minWindow, 1), slices) }

// windowed groups per-slice samples into windows.
func windowed(per *[slices][]float64) [][]float64 {
	n := 0
	for _, s := range per {
		n += len(s)
	}
	out := make([][]float64, nWindows(n))
	for i, s := range per {
		w := i * len(out) / slices
		out[w] = append(out[w], s...)
	}
	return out
}

// phase is what one timed pass of the closed loop measured. Durations are
// on-CPU time of the feeder thread (threadCPU) unless named wall.
type phase struct {
	ops, docs, failed int
	wall              time.Duration
	// Per slice: documents carried, CPU time of all ops, and latencies in
	// µs of every document and of documents that notified.
	sliceDocs        [slices]int
	sliceCPU         [slices]time.Duration
	docLat, alertLat [slices][]float64
	heap             uint64 // live heap at op workload.heapAt
	rt0, rt1         cpuSample
	ms0, ms1         runtime.MemStats
}

func (p *phase) cpu() time.Duration {
	var t time.Duration
	for _, c := range p.sliceCPU {
		t += c
	}
	return t
}

// docsPerSec is documents per second of feeder CPU time over the phase.
func (p *phase) docsPerSec() float64 { return ratio(float64(p.docs), p.cpu().Seconds()) }

// windowRate is the median over windows of documents per CPU second.
func (p *phase) windowRate() float64 {
	n := nWindows(p.docs)
	docs := make([]float64, n)
	cpu := make([]time.Duration, n)
	for i := range p.sliceDocs {
		docs[i*n/slices] += float64(p.sliceDocs[i])
		cpu[i*n/slices] += p.sliceCPU[i]
	}
	rates := make([]float64, n)
	for w := range docs {
		rates[w] = ratio(docs[w], cpu[w].Seconds())
	}
	return percentile(sorted(rates), 0.5)
}

// measure runs the closed loop on f for wall time d, or for exactly limit
// ops when limit > 0 (then everything lands in slice 0). With sampleHeap
// it also forces a collection at op heapAt, between two ops, and records
// the live heap, running past d if needed.
func measure(f *feeder, d time.Duration, limit int, sampleHeap bool) *phase {
	p := &phase{}
	heapDone := !sampleHeap
	runtime.ReadMemStats(&p.ms0)
	p.rt0 = readCPU()
	start := time.Now()
	var paused time.Duration
	timing := true
	for {
		elapsed := time.Since(start) - paused
		if limit > 0 {
			if f.next >= limit {
				break
			}
		} else if timing && elapsed >= d {
			timing = false
			p.wall = elapsed
		}
		if !timing && heapDone {
			break
		}
		slice := 0
		if limit == 0 {
			slice = min(int(elapsed*slices/d), slices-1)
		}
		c0 := threadCPU()
		isDoc, notes, err := f.step()
		c := threadCPU() - c0
		if err != nil {
			p.failed++
		}
		if timing {
			p.ops++
			p.sliceCPU[slice] += c
			if isDoc {
				lat := micros(c)
				p.docs++
				p.sliceDocs[slice]++
				p.docLat[slice] = append(p.docLat[slice], lat)
				if notes > 0 {
					p.alertLat[slice] = append(p.alertLat[slice], lat)
				}
			}
		}
		if !heapDone && f.next == f.w.heapAt {
			t := time.Now()
			p.heap = liveHeap()
			paused += time.Since(t)
			heapDone = true
		}
	}
	if limit > 0 {
		p.wall = time.Since(start) - paused
	}
	p.rt1 = readCPU()
	runtime.ReadMemStats(&p.ms1)
	return p
}

// probe times System.Subscribe on the set-up system, in bursts of
// minWindow calls; each burst is one window. Every call registers a fresh
// copy of a base subscription, removed again straight after (untimed), so
// the base stays as it was. Each burst starts after a forced collection
// and is too short to start another, so its tail is the call's own, not a
// GC assist. Bursts continue to slices of them, or until probeCPU is
// spent after at least three.
func probe(f *feeder) ([][]float64, error) {
	var wins [][]float64
	var spent time.Duration
	for k := 0; len(wins) < slices && (len(wins) < 3 || spent < probeCPU); {
		runtime.GC()
		lat := make([]float64, 0, minWindow)
		for len(lat) < minWindow {
			name := "Probe" + strconv.Itoa(k)
			base := f.w.subs[k%len(f.w.subs)]
			k++
			c0 := threadCPU()
			if _, err := f.sys.Subscribe("subscription " + name + base[len("subscription "+nameOf(base)):]); err != nil {
				return nil, fmt.Errorf("probe subscription %d: %w", k, err)
			}
			c := threadCPU() - c0
			spent += c
			lat = append(lat, micros(c))
			if err := f.sys.Unsubscribe(name); err != nil {
				return nil, fmt.Errorf("probe unsubscribe %d: %w", k, err)
			}
		}
		wins = append(wins, lat)
	}
	return wins, nil
}

// probeCPU bounds the subscription probe's timed calls.
const probeCPU = time.Second

// check compares a run's outcome with the reference replay of the same
// ops; "" when they agree.
func check(name string, o, ref outcome) string {
	if o.produced != o.total() {
		return fmt.Sprintf("%s: chain returned %d notifications, subscribers saw %d", name, o.produced, o.total())
	}
	if d := o.diff(ref); d != "" {
		return name + ": " + d
	}
	return ""
}

// runEndToEnd: set up repeatedly (keeping the last system), probe
// subscription latency, run the timed phase untraced, then replay the same
// ops on the reference system.
func runEndToEnd(cfg config, w *workload) (*result, error) {
	heapBase := liveHeap() // the corpus and the program, before any System
	var setupS []float64
	var setupTotal time.Duration
	var f *feeder
	// At least three set-ups, and more (up to 15) while they add up to
	// under two seconds: a cheap set-up needs more samples to be steady.
	for i := 0; i < 3 || (i < 15 && setupTotal < 2*time.Second); i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		c0 := threadCPU()
		var err error
		f, err = newFeeder(w, sysFast, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", i)), nil)
		if err != nil {
			return nil, err
		}
		d := threadCPU() - c0
		setupTotal += d
		setupS = append(setupS, d.Seconds())
	}
	sub, err := probe(f)
	if err != nil {
		return nil, err
	}
	errs0 := f.errorsNow()
	runtime.GC() // every run starts its timed phase from the same GC state
	p := measure(f, seconds(cfg.seconds), 0, true)
	failed := p.failed + int(f.errorsNow()-errs0)
	out := f.outcome()
	if err := f.close(); err != nil {
		return nil, err
	}
	ref, err := replayReference(w, out.ops)
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: p.ops, Failed: failed}
	res.mismatch = check("run", out, ref)
	res.Correct = res.mismatch == ""
	res.add("docs_per_s", "1/s", p.windowRate(), p.docs)
	res.addLatency("doc", windowed(&p.docLat))
	res.addLatency("alert", windowed(&p.alertLat))
	res.add("setup_s", "s", percentile(sorted(setupS), 0.5), len(setupS))
	res.add("heap_live_mb", "MB", (float64(p.heap)-float64(heapBase))/(1<<20), 1)
	// Subscription latency is printed but not gated: on durable-churn its
	// fsync path and the cache-cold RefreshHints walk swing it by more
	// than the largest bound the benchmark may set (see README.md).
	p50, p99, n := windowedLatency(sub)
	res.info("subscribe_p50_us", "us", p50, n)
	res.info("subscribe_p99_us", "us", p99, n)
	res.info("wall_docs_per_s", "1/s", ratio(float64(p.docs), p.wall.Seconds()), p.docs)
	res.info("offcpu_share", "ratio", 1-ratio(p.cpu().Seconds(), p.wall.Seconds()), p.docs)
	return res, nil
}

// runTraced: an untraced timed phase, then a traced system fed exactly
// the same ops, then the reference replay. All three outcomes must agree.
func runTraced(cfg config, w *workload) (*result, error) {
	f, err := newFeeder(w, sysFast, filepath.Join(cfg.workDir, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	errs0 := f.errorsNow()
	runtime.GC()
	p := measure(f, seconds(cfg.seconds), 0, false)
	failed := p.failed + int(f.errorsNow()-errs0)
	out := f.outcome()
	if err := f.close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	g, err := newFeeder(w, sysFast, filepath.Join(cfg.workDir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	errs0 = g.errorsNow()
	m0 := g.sys.Matcher.Stats()
	_, notes0 := g.tally.delivered()
	var stream0, stream1 [2]uint64
	var wal0, wal1 int64
	if g.sys.Stream != nil {
		st := g.sys.Stream.Stats()
		stream0 = [2]uint64{st.Records, st.Batches}
		wal0 = dirBytes(g.dir)
	}
	q := measure(g, 0, out.ops, false)
	failed += q.failed + int(g.errorsNow()-errs0)
	m1 := g.sys.Matcher.Stats()
	if g.sys.Stream != nil {
		st := g.sys.Stream.Stats()
		stream1 = [2]uint64{st.Records, st.Batches}
		wal1 = dirBytes(g.dir)
	}
	traced := g.outcome()
	if err := g.close(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(cfg.traceOut); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	ref, err := replayReference(w, out.ops)
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: p.ops + q.ops, Failed: failed}
	res.mismatch = check("untraced run", out, ref)
	if res.mismatch == "" {
		res.mismatch = check("traced run", traced, ref)
	}
	res.Correct = res.mismatch == ""

	timed, all := tr.layers()
	wall := tr.elapsed()
	docs := float64(len(timed[spanDoc].us))
	perDoc := func(v float64) float64 { return ratio(v, docs) }
	share := func(n spanName) float64 { return ratio(timed[n].busy, wall) }
	count := func(l layerStats, pred func(int32) bool) (n int) {
		for _, v := range l.notes {
			if pred(v) {
				n++
			}
		}
		return n
	}
	sum := func(l layerStats, abs bool) (s float64) {
		for _, v := range l.notes {
			if abs && v < 0 {
				v = -v
			}
			s += float64(v)
		}
		return s
	}

	gate := timed[spanGate]
	res.add("crawler.gate_calls", "count", float64(len(gate.us)), 0)
	res.add("crawler.gate_admit_ratio", "ratio", ratio(float64(count(gate, func(v int32) bool { return v == 1 })), float64(len(gate.us))), len(gate.us))
	res.add("crawler.gate_us_p50", "us", gate.p(0.5), len(gate.us))
	res.add("crawler.gate_busy_share", "ratio", share(spanGate), 0)

	commit := timed[spanCommit]
	commits := float64(len(commit.us))
	tierShare := func(pred func(int32) bool) float64 { return ratio(float64(count(commit, pred)), commits) }
	tierLat := func(pred func(int32) bool) layerStats {
		var l layerStats
		for i, v := range commit.notes {
			if pred(v) {
				l.us = append(l.us, commit.us[i])
			}
		}
		sort.Float64s(l.us)
		return l
	}
	isTier2 := func(v int32) bool { return v == tierStruct }
	isParsed := func(v int32) bool { return v == tierParse || v == tierDiff }
	res.add("warehouse.commit_us_p50", "us", commit.p(0.5), len(commit.us))
	res.add("warehouse.commit_us_p99", "us", commit.p(0.99), len(commit.us))
	res.add("warehouse.busy_share", "ratio", share(spanCommit), 0)
	res.add("warehouse.rawsig_ratio", "ratio", tierShare(func(v int32) bool { return v == tierRawSig }), len(commit.us))
	res.add("warehouse.structhash_ratio", "ratio", tierShare(isTier2), len(commit.us))
	res.add("warehouse.parse_ratio", "ratio", tierShare(isParsed), len(commit.us))
	res.add("warehouse.diff_ratio", "ratio", tierShare(func(v int32) bool { return v == tierDiff }), len(commit.us))
	t2, t3 := tierLat(isTier2), tierLat(isParsed)
	res.add("warehouse.tier2_us_p50", "us", t2.p(0.5), len(t2.us))
	res.add("warehouse.tier3_us_p50", "us", t3.p(0.5), len(t3.us))
	res.add("warehouse.errors", "count", float64(count(commit, func(v int32) bool { return v == tierError })), 0)

	detect := timed[spanDetect]
	alerts := float64(count(detect, func(v int32) bool { return v != 0 }))
	res.add("alerter.detect_us_p50", "us", detect.p(0.5), len(detect.us))
	res.add("alerter.busy_share", "ratio", share(spanDetect), 0)
	res.add("alerter.alerts_per_doc", "ratio", ratio(alerts, float64(len(detect.us))), len(detect.us))
	res.add("alerter.strong_ratio", "ratio", ratio(float64(count(detect, func(v int32) bool { return v > 0 })), alerts), int(alerts))
	res.add("alerter.events_per_alert", "count", ratio(sum(detect, true), alerts), int(alerts))

	pa := timed[spanProcessAlert]
	res.add("manager.process_alert_us_p50", "us", pa.p(0.5), len(pa.us))
	res.add("manager.process_alert_us_p99", "us", pa.p(0.99), len(pa.us))
	res.add("manager.busy_share", "ratio", share(spanProcessAlert), 0)
	res.add("manager.notifications_per_alert", "count", ratio(sum(pa, false), float64(len(pa.us))), len(pa.us))

	calls := float64(m1.MatchCalls - m0.MatchCalls)
	res.add("core.match_calls", "count", calls, 0)
	res.add("core.probes_per_match", "count", ratio(float64(m1.CellProbes-m0.CellProbes), calls), 0)
	res.add("core.matched_per_match", "count", ratio(float64(m1.MatchedSets-m0.MatchedSets), calls), 0)
	res.add("core.complex_events", "count", float64(m1.Complex), 0)

	reports := float64(tr.rep.delivered)
	_, notes1 := g.tally.delivered()
	res.add("reporter.reports_per_doc", "ratio", perDoc(reports), 0)
	res.add("reporter.notifications_per_report", "count", ratio(float64(notes1-notes0), reports), 0)
	res.add("reporter.delivery_failed", "count", float64(tr.rep.failed), 0)
	res.add("reporter.journal_errors", "count", float64(tr.rep.journalErrors), 0)
	res.add("reporter.stream_published", "count", float64(tr.rep.streamed), 0)

	for _, l := range []struct {
		metric string
		span   spanName
	}{
		{"manager.subscribe_us_p50", spanManagerSubscribe},
		{"manager.refresh_hints_us_p50", spanRefreshHints},
		{"manager.unsubscribe_us_p50", spanManagerUnsubscribe},
	} {
		res.add(l.metric, "us", all[l.span].p(0.5), len(all[l.span].us))
	}

	res.add("stream.records_per_doc", "ratio", perDoc(float64(stream1[0]-stream0[0])), 0)
	res.add("stream.batches_per_doc", "ratio", perDoc(float64(stream1[1]-stream0[1])), 0)
	res.add("wal.bytes_per_doc", "B", perDoc(float64(wal1-wal0)), 0)

	res.add("runtime.gc_cpu_share", "ratio", gcShare(p.rt0, p.rt1), 0)
	res.add("runtime.offcpu_share", "ratio", 1-ratio(p.cpu().Seconds(), p.wall.Seconds()), 0)
	res.add("runtime.alloc_bytes_per_doc", "B", ratio(float64(p.ms1.TotalAlloc-p.ms0.TotalAlloc), float64(p.docs)), p.docs)
	res.add("runtime.allocs_per_doc", "count", ratio(float64(p.ms1.Mallocs-p.ms0.Mallocs), float64(p.docs)), p.docs)
	res.add("trace.overhead_ratio", "ratio", ratio(p.docsPerSec(), q.docsPerSec()), 0)
	if len(res.order) != len(res.Metrics) {
		return nil, errors.New("duplicate metric name")
	}
	return res, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
