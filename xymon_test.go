package xymon

import (
	"strings"
	"testing"
	"time"
)

type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newSystem(t *testing.T, opts Options) (*System, *testClock, *[]*Report) {
	t.Helper()
	c := &testClock{t: time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC)}
	var reports []*Report
	opts.Clock = c.now
	if opts.Delivery == nil {
		opts.Delivery = DeliveryFunc(func(r *Report) error {
			reports = append(reports, r)
			return nil
		})
	}
	sys, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sys, c, &reports
}

func TestQuickstartFlow(t *testing.T) {
	sys, _, reports := newSystem(t, Options{})
	_, err := sys.Subscribe(`subscription Watch
monitoring
select <UpdatedPage url=URL/>
where URL extends "http://inria.fr/Xy/" and modified self
report when immediate`)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if n, err := sys.PushXML("http://inria.fr/Xy/index.xml", "", "", `<page><v>1</v></page>`); err != nil || n != 0 {
		t.Fatalf("first push: n=%d err=%v", n, err)
	}
	n, err := sys.PushXML("http://inria.fr/Xy/index.xml", "", "", `<page><v>2</v></page>`)
	if err != nil || n != 1 {
		t.Fatalf("second push: n=%d err=%v", n, err)
	}
	if len(*reports) != 1 || !strings.Contains((*reports)[0].Doc.XML(), "UpdatedPage") {
		t.Fatalf("reports = %v", *reports)
	}
}

func TestPushErrors(t *testing.T) {
	sys, _, _ := newSystem(t, Options{})
	if _, err := sys.PushXML("u", "", "", "not xml <"); err == nil {
		t.Error("bad XML should fail")
	}
	if _, err := sys.Subscribe("garbage"); err == nil {
		t.Error("bad subscription should fail")
	}
}

func TestCrawlSimulatedSite(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	_, err := sys.Subscribe(`subscription Cameras
monitoring
select <CameraOffer url=URL/>
where URL extends "http://shop.example/"
  and new product contains "camera"
report when immediate`)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.AddSite(NewSite(SiteSpec{BaseURL: "http://shop.example", Pages: 5, Products: 20, Seed: 9}))
	fetched := sys.Crawl()
	if fetched != 5 {
		t.Fatalf("Crawl = %d", fetched)
	}
	// With 20 products over a 30-word vocabulary, some page almost surely
	// sells a camera; the seed is fixed so this is deterministic.
	if len(*reports) == 0 {
		t.Fatal("no camera offers found on discovery crawl")
	}
	st := sys.Stats()
	if st.Pages != 5 || st.Crawler.Fetches != 5 || st.Manager.DocsProcessed != 5 {
		t.Errorf("stats = %+v", st)
	}
	// Later crawls only fetch when due.
	if n := sys.Crawl(); n != 0 {
		t.Errorf("immediate recrawl fetched %d", n)
	}
	c.advance(8 * 24 * time.Hour)
	if n := sys.Crawl(); n != 5 {
		t.Errorf("due recrawl fetched %d", n)
	}
}

func TestContinuousQueryOverWarehouse(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	if _, err := sys.PushXML("http://museums.example/ams.xml", "", "culture",
		`<culture><museum><address>Amsterdam</address>
		 <painting><title>Night Watch</title></painting></museum></culture>`); err != nil {
		t.Fatalf("PushXML: %v", err)
	}
	_, err := sys.Subscribe(`subscription Art
continuous delta AmsterdamPaintings
select p/title from culture/museum m, m/painting p
where m/address contains "Amsterdam"
when biweekly
report when immediate`)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.Tick()
	if len(*reports) != 1 || !strings.Contains((*reports)[0].Doc.XML(), "Night Watch") {
		t.Fatalf("first evaluation: %v", *reports)
	}
	// No change: biweekly re-evaluation stays silent (delta mode).
	c.advance(4 * 24 * time.Hour)
	sys.Tick()
	if len(*reports) != 1 {
		t.Fatalf("unchanged delta reported: %d", len(*reports))
	}
	// New painting appears; the next evaluation reports only the delta.
	if _, err := sys.PushXML("http://museums.example/ams.xml", "", "culture",
		`<culture><museum><address>Amsterdam</address>
		 <painting><title>Night Watch</title></painting>
		 <painting><title>Milkmaid</title></painting></museum></culture>`); err != nil {
		t.Fatalf("PushXML: %v", err)
	}
	c.advance(4 * 24 * time.Hour)
	sys.Tick()
	if len(*reports) != 2 {
		t.Fatalf("changed delta missing: %d", len(*reports))
	}
	out := (*reports)[1].Doc.XML()
	if !strings.Contains(out, "Milkmaid") || strings.Contains(out, "Night Watch") {
		t.Errorf("delta report = %s", out)
	}
}

func TestJournalPersistenceAcrossSystems(t *testing.T) {
	dir := t.TempDir()
	sys1, _, _ := newSystem(t, Options{DurableDir: dir})
	if _, err := sys1.Subscribe(`subscription Persistent
monitoring select <P url=URL/> where URL extends "http://p.example/" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := sys1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	sys2, _, reports2 := newSystem(t, Options{DurableDir: dir})
	defer sys2.Close()
	if got := sys2.Manager.Subscriptions(); len(got) != 1 || got[0] != "Persistent" {
		t.Fatalf("recovered subscriptions = %v", got)
	}
	sys2.PushXML("http://p.example/a.xml", "", "", `<a><v>1</v></a>`)
	sys2.PushXML("http://p.example/a.xml", "", "", `<a><v>2</v></a>`)
	if len(*reports2) != 1 {
		t.Errorf("recovered system reports = %d", len(*reports2))
	}
}

func TestTriePrefixOption(t *testing.T) {
	sys, _, reports := newSystem(t, Options{TriePrefixes: true})
	if _, err := sys.Subscribe(`subscription T
monitoring select <P url=URL/> where URL extends "http://t.example/" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.PushXML("http://t.example/x.xml", "", "", `<a><v>1</v></a>`)
	sys.PushXML("http://t.example/x.xml", "", "", `<a><v>2</v></a>`)
	if len(*reports) != 1 {
		t.Errorf("trie-based system reports = %d", len(*reports))
	}
}

func TestHTMLMonitoring(t *testing.T) {
	sys, _, reports := newSystem(t, Options{})
	if _, err := sys.Subscribe(`subscription HtmlWatch
monitoring
select <Mention url=URL/>
where URL extends "http://news.example/"
  and self contains "xyleme"
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	n, err := sys.PushHTML("http://news.example/today.html",
		[]byte("<html><body>Xyleme monitors the web</body></html>"))
	if err != nil || n != 1 {
		t.Fatalf("PushHTML: n=%d err=%v", n, err)
	}
	if len(*reports) != 1 {
		t.Errorf("reports = %d", len(*reports))
	}
	n, _ = sys.PushHTML("http://news.example/other.html", []byte("<html>nothing here</html>"))
	if n != 0 {
		t.Errorf("unrelated page produced %d notifications", n)
	}
}

func TestSemanticAutoClassification(t *testing.T) {
	sys, _, reports := newSystem(t, Options{
		Domains: map[string][]string{
			"culture":  {"museum", "painting", "title", "address"},
			"shopping": {"catalog", "product", "price"},
		},
	})
	// Push without an explicit domain: the semantic module classifies it.
	if _, err := sys.PushXML("http://museums.example/x.xml", "", "",
		`<culture><museum><address>Amsterdam</address>
		 <painting><title>Night Watch</title></painting></museum></culture>`); err != nil {
		t.Fatalf("PushXML: %v", err)
	}
	e, err := sys.Store.Get("http://museums.example/x.xml")
	if err != nil || e.Meta.Domain != "culture" {
		t.Fatalf("classified domain = %q, err %v", e.Meta.Domain, err)
	}
	// A domain condition now matches the classified document.
	if _, err := sys.Subscribe(`subscription CultureWatch
monitoring
select <CulturePage url=URL/>
where domain = "culture" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := sys.PushXML("http://museums.example/x.xml", "", "",
		`<culture><museum><address>Amsterdam</address>
		 <painting><title>Milkmaid</title></painting></museum></culture>`); err != nil {
		t.Fatalf("PushXML: %v", err)
	}
	if len(*reports) != 1 {
		t.Fatalf("reports = %d, want 1 (domain condition matched)", len(*reports))
	}
}

func TestDeletedPageMonitoring(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	if _, err := sys.Subscribe(`subscription Obituary
monitoring
select <PageGone url=URL/>
where URL extends "http://mort.example/" and deleted self
monitoring
select <ProductGone url=URL/>
where URL extends "http://mort.example/" and deleted product
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.AddSite(NewSite(SiteSpec{BaseURL: "http://mort.example", Pages: 1, Products: 5, Seed: 14, Lifetime: 2}))
	sys.Crawl()
	for i := 0; i < 30 && len(*reports) == 0; i++ {
		c.advance(8 * 24 * time.Hour)
		sys.Crawl()
	}
	if len(*reports) < 2 {
		t.Fatalf("reports = %d, want PageGone and ProductGone", len(*reports))
	}
	var all strings.Builder
	for _, r := range *reports {
		all.WriteString(r.Doc.XML())
	}
	if !strings.Contains(all.String(), "PageGone") || !strings.Contains(all.String(), "ProductGone") {
		t.Errorf("reports = %s", all.String())
	}
}

// TestDiscoveryMonitoring is the paper's Section 1 example: "discovery of
// a new page within a certain semantic domain". Hidden pages surface
// through links on the site's HTML pages; the subscription fires when the
// crawler discovers and fetches them.
func TestDiscoveryMonitoring(t *testing.T) {
	sys, c, reports := newSystem(t, Options{})
	if _, err := sys.Subscribe(`subscription NewShopPages
monitoring
select <Discovered url=URL/>
where domain = "shopping" and new self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	sys.AddSite(NewSite(SiteSpec{
		BaseURL: "http://disc.example", Pages: 1, HTMLShare: 1, HiddenPages: 1,
		Seed: 33, Domain: "shopping",
	}))
	sys.Crawl()
	initial := len(*reports) // the pre-registered catalog page is new too
	for i := 0; i < 10 && sys.Stats().Crawler.Discovered == 0; i++ {
		c.advance(8 * 24 * time.Hour)
		sys.Crawl()
		sys.Crawl() // fetch freshly discovered pages
	}
	if sys.Stats().Crawler.Discovered == 0 {
		t.Fatal("no discovery happened")
	}
	if len(*reports) <= initial {
		t.Fatalf("no report for the discovered page: %d vs %d", len(*reports), initial)
	}
	last := (*reports)[len(*reports)-1].Doc.XML()
	if !strings.Contains(last, "hidden0.xml") {
		t.Errorf("report = %s", last)
	}
}

func TestWarehousePersistenceAcrossSystems(t *testing.T) {
	dir := t.TempDir()
	sys1, _, _ := newSystem(t, Options{DataDir: dir})
	sys1.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p></c>`)
	sys1.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p><p>tv</p></c>`)
	if err := sys1.SaveWarehouse(""); err != nil {
		t.Fatalf("SaveWarehouse: %v", err)
	}

	sys2, _, reports := newSystem(t, Options{DataDir: dir})
	if sys2.Store.Len() != 1 {
		t.Fatalf("restored pages = %d", sys2.Store.Len())
	}
	// Change detection continues against the restored state: the same
	// content is unchanged, different content raises updated.
	if _, err := sys2.Subscribe(`subscription W
monitoring select <U url=URL/> where URL extends "http://w.example/" and modified self
report when immediate`); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	n, err := sys2.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p><p>tv</p></c>`)
	if err != nil || n != 0 {
		t.Fatalf("unchanged push after restore: n=%d err=%v", n, err)
	}
	n, err = sys2.PushXML("http://w.example/a.xml", "", "shopping", `<c><p>radio</p></c>`)
	if err != nil || n != 1 || len(*reports) != 1 {
		t.Fatalf("changed push after restore: n=%d err=%v reports=%d", n, err, len(*reports))
	}
	// SaveWarehouse without any directory fails.
	sys3, _, _ := newSystem(t, Options{})
	if err := sys3.SaveWarehouse(""); err == nil {
		t.Error("SaveWarehouse without DataDir should fail")
	}
}
