package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"

	"xymon/internal/webgen"
)

// opKind is what one step of the feeder does.
type opKind uint8

const (
	// opFetch is a crawler refetch: ingest gate, then commit and
	// ProcessDoc when the gate admits the page.
	opFetch opKind = iota
	// opPush is System.PushXML, the daemon's /push.
	opPush
	// opSubscribe registers a new subscription through System.Subscribe;
	// its name is assigned at execution time from the global op index.
	opSubscribe
	// opUnsubscribe removes the oldest live subscription (FIFO order over
	// the base, then over the subscriptions opSubscribe added).
	opUnsubscribe
)

// doc is one pre-rendered page version.
type doc struct {
	url, dtd, domain string
	data             []byte // fetches: the crawler hands the gate bytes
	text             string // pushes: PushXML takes a string
}

// op is one step of a workload's operation sequence.
type op struct {
	kind opKind
	doc  *doc
	// body is an opSubscribe's subscription text after its name, from the
	// newline that ends the name line.
	body string
}

// workload is everything a run needs, rendered from the seed before any
// System exists: no webgen code runs once timing starts.
type workload struct {
	name string
	// subs are the base subscriptions, registered during set-up.
	subs []string
	// prime are the documents committed during set-up, so the timed
	// phase starts from a warm warehouse (steady-state refetch).
	prime []op
	// ops is the timed sequence; op i of a run is ops[i%len(ops)].
	ops []op
	// heapAt is the op count at which the live heap is sampled, so the
	// figure does not grow with throughput (the warehouse keeps deltas).
	heapAt int
	// durable runs the system under Options.DurableDir.
	durable bool
}

// size scales a workload; small is the self-test scale.
type size struct{ small bool }

func (s size) pick(full, small int) int {
	if s.small {
		return small
	}
	return full
}

var workloadNames = []string{"crawl", "push-fanout", "durable-churn"}

// newWorkload renders the named workload from seed.
func newWorkload(name string, seed int64, sz size) (*workload, error) {
	switch name {
	case "crawl":
		return crawlWorkload(seed, sz), nil
	case "push-fanout":
		return fanoutWorkload(seed, sz), nil
	case "durable-churn":
		return churnWorkload(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// rareWord is outside webgen's vocabulary, so only pages given it by
// SiteSpec.RareWord carry it.
const rareWord = "zyzzyva"

// crawlWorkload: steady-state refetch rounds over catalog pages. Each
// page follows a fixed schedule of fetch versions; a repeated version is
// a byte-identical refetch (warehouse tier 1), an advance within a
// PerturbEvery window is a whitespace-reflowed refetch of unchanged
// content (tier 2), and an advance across the window is a real change
// (tier 3: parse and masked diff).
func crawlWorkload(seed int64, sz size) *workload {
	rng := rand.New(rand.NewSource(seed))
	sites := sz.pick(40, 6)
	perSite := sz.pick(25, 5)
	const window = 16 // fetch visits per page before its schedule repeats
	w := &workload{name: "crawl"}
	var pages [][]*doc // pages[p][k]: the document of visit k
	for s := 0; s < sites; s++ {
		site := webgen.NewSite(webgen.SiteSpec{
			BaseURL:  fmt.Sprintf("http://site%d.example/", s),
			Pages:    perSite,
			Products: 12,
			Seed:     rng.Int63(),
			RareWord: rareWord, RareEvery: 20,
			PerturbEvery: 3, PerturbKind: webgen.PerturbWhitespace,
		})
		spec := site.Spec()
		for _, url := range site.XMLURLs() {
			byVersion := map[int]*doc{}
			visits := make([]*doc, window)
			v := 1
			for k := range visits {
				if k > 0 && rng.Intn(5) != 0 {
					v++ // one visit in five refetches the same bytes
				}
				d := byVersion[v]
				if d == nil {
					d = &doc{url: url, dtd: spec.DTD, domain: spec.Domain, data: site.FetchXMLBytes(url, v)}
					byVersion[v] = d
				}
				visits[k] = d
			}
			pages = append(pages, visits)
		}
	}
	for _, visits := range pages {
		w.prime = append(w.prime, op{kind: opFetch, doc: visits[0]})
	}
	// Rounds visit every page in one seeded crawl order; round r fetches
	// visit r (mod window), so round `window` wraps back to visit 0.
	order := rng.Perm(len(pages))
	for r := 1; r <= window; r++ {
		for _, p := range order {
			w.ops = append(w.ops, op{kind: opFetch, doc: pages[p][r%window]})
		}
	}

	// A realistic, small base: URL-scoped `modified self` watches on a
	// minority of sites, a keyword watch on the rare word, and a few
	// `new product contains` watches.
	watched := rng.Perm(sites)[:max(1, sites/5)]
	n := 0
	next := func() int { n++; return n }
	for _, s := range watched {
		for i := 0; i < sz.pick(8, 2); i++ {
			w.subs = append(w.subs, fmt.Sprintf(`subscription Watch%d
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://site%d.example/" and modified self
report when notifications.count > %d`, next(), s, threshold(rng)))
		}
	}
	for i := 0; i < sz.pick(100, 10); i++ {
		cond := `product contains "` + rareWord + `"`
		if i%2 == 1 {
			cond = `self contains "` + rareWord + `"`
		}
		w.subs = append(w.subs, fmt.Sprintf(`subscription Rare%d
monitoring
select <Hit url=URL/>
where %s
report when notifications.count > %d`, next(), cond, threshold(rng)))
	}
	vocab := webgen.Vocabulary()
	for i := 0; i < sz.pick(36, 4); i++ {
		w.subs = append(w.subs, fmt.Sprintf(`subscription NewProduct%d
monitoring
select <NewProduct url=URL/>
where new product contains %q
report when notifications.count > %d`, next(), vocab[rng.Intn(len(vocab))], threshold(rng)))
	}
	w.heapAt = len(w.ops)
	return w
}

// threshold draws a report's notification count trigger. Subscribers
// pick their own: identical conditions with one shared threshold would
// fire their reports in lockstep, a burst real bases do not have.
func threshold(rng *rand.Rand) int { return 4 + rng.Intn(12) }

// feedSites renders the small catalog feeds of the push workloads and
// primes each page with its first version: the result's [p][k] is version
// k+1 of feed page p. A page's pushes walk its versions in order and wrap
// around, so every push is a real change.
func feedSites(w *workload, rng *rand.Rand, sites, perSite, versions int) [][]*doc {
	var pages [][]*doc
	for s := 0; s < sites; s++ {
		site := webgen.NewSite(webgen.SiteSpec{
			BaseURL:  fmt.Sprintf("http://feed%d.example/", s),
			Pages:    perSite,
			Products: 6,
			Seed:     rng.Int63(),
		})
		spec := site.Spec()
		for _, url := range site.XMLURLs() {
			vs := make([]*doc, versions)
			for k := range vs {
				vs[k] = &doc{url: url, dtd: spec.DTD, domain: spec.Domain, text: string(site.FetchXMLBytes(url, k+1))}
			}
			pages = append(pages, vs)
		}
	}
	for _, vs := range pages {
		w.prime = append(w.prime, op{kind: opPush, doc: vs[0]})
	}
	return pages
}

// pushSeq appends n pushes to seeded random feed pages, each page
// advancing to its next version.
func pushSeq(ops []op, rng *rand.Rand, pages [][]*doc, visits []int, n int) []op {
	for i := 0; i < n; i++ {
		p := rng.Intn(len(pages))
		visits[p]++
		ops = append(ops, op{kind: opPush, doc: pages[p][visits[p]%len(pages[p])]})
	}
	return ops
}

// fanoutSub is one push-workload subscription of kind k on feed site s.
// Over eight consecutive kinds: a quarter `modified self` page watches,
// half keyword presence watches, and the rest element-change watches
// (`updated product contains`, `new X` payload subscriptions).
func fanoutSub(rng *rand.Rand, k, s int, vocab []string, report string) string {
	prefix := fmt.Sprintf(`URL extends "http://feed%d.example/"`, s)
	word := vocab[rng.Intn(len(vocab))]
	switch k % 8 {
	case 0, 1:
		return fmt.Sprintf("monitoring\nselect <UpdatedPage url=URL/>\nwhere %s and modified self\n%s", prefix, report)
	case 2, 3, 4, 5:
		return fmt.Sprintf("monitoring\nselect <Hit url=URL word=%q/>\nwhere %s and product contains %q\n%s", word, prefix, word, report)
	case 6:
		return fmt.Sprintf("monitoring\nselect <Changed url=URL/>\nwhere %s and updated product contains %q\n%s", prefix, word, report)
	default:
		return fmt.Sprintf("monitoring\nselect P\nfrom self//product P\nwhere %s and new P\n%s", prefix, report)
	}
}

// fanoutWorkload: pushes of small catalog documents against a large base
// registered through System.Subscribe; every document matches on the
// order of a hundred subscriptions and reports fire by count.
func fanoutWorkload(seed int64, sz size) *workload {
	rng := rand.New(rand.NewSource(seed))
	sites := sz.pick(100, 10)
	w := &workload{name: "push-fanout"}
	pages := feedSites(w, rng, sites, 2, 24)
	visits := make([]int, len(pages))
	w.ops = pushSeq(nil, rng, pages, visits, 1<<15)
	w.heapAt = sz.pick(4000, 200)
	vocab := webgen.Vocabulary()
	perSite := sz.pick(200, 40)
	for i := 0; i < sites*perSite; i++ {
		// Site i%sites gets kinds 0, 1, 2, ... in turn: every site carries
		// the whole mix.
		w.subs = append(w.subs, fmt.Sprintf("subscription Fan%d\n%s", i,
			fanoutSub(rng, i/sites, i%sites, vocab, fmt.Sprintf("report when notifications.count > %d", threshold(rng)))))
	}
	return w
}

// churnWorkload: durable pushes with `report when immediate`, and one
// subscribe/unsubscribe pair after every ten pushes, over a base of a few
// thousand subscriptions.
func churnWorkload(seed int64, sz size) *workload {
	rng := rand.New(rand.NewSource(seed))
	sites := sz.pick(300, 20)
	w := &workload{name: "durable-churn", durable: true}
	pages := feedSites(w, rng, sites, 2, 12)
	visits := make([]int, len(pages))
	vocab := webgen.Vocabulary()
	const immediate = "report when immediate"
	for c := 0; c < 4096; c++ {
		w.ops = pushSeq(w.ops, rng, pages, visits, 10)
		w.ops = append(w.ops,
			op{kind: opSubscribe, body: "\n" + fanoutSub(rng, rng.Intn(8), rng.Intn(sites), vocab, immediate)},
			op{kind: opUnsubscribe})
	}
	w.heapAt = sz.pick(2400, 120)
	for i := 0; i < sites*8; i++ {
		w.subs = append(w.subs, fmt.Sprintf("subscription Base%d\n%s", i,
			fanoutSub(rng, i/sites, i%sites, vocab, immediate)))
	}
	return w
}

// digest fingerprints the rendered inputs: base, priming documents and
// the op sequence, in order.
func (w *workload) digest() [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	put := func(s string) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	for _, s := range w.subs {
		put(s)
	}
	for _, list := range [][]op{w.prime, w.ops} {
		for _, o := range list {
			h.Write([]byte{byte(o.kind)})
			put(o.body)
			if o.doc != nil {
				put(o.doc.url)
				put(o.doc.dtd)
				put(o.doc.domain)
				put(string(o.doc.data))
				put(o.doc.text)
			}
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}
