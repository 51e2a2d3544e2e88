package webgen

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestWorkloadReproducible pins the determinism contract: the same seed
// produces the same workload, and the seed-based entry point is exactly
// the injected-generator one fed a fresh rand.New(rand.NewSource(seed)).
func TestWorkloadReproducible(t *testing.T) {
	a := GenEventWorkload(42, 100, 500, 3, 10, 50)
	b := GenEventWorkload(42, 100, 500, 3, 10, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different workloads")
	}
	c := GenEventWorkloadRand(rand.New(rand.NewSource(42)), 100, 500, 3, 10, 50)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("injected generator diverged from the seed entry point")
	}
	d := GenEventWorkload(43, 100, 500, 3, 10, 50)
	if reflect.DeepEqual(a, d) {
		t.Fatal("different seeds produced identical workloads")
	}
}

// TestWorkloadSharedGenerator checks the point of injection: one
// generator threaded through consecutive calls keeps advancing, so the
// two halves of an experiment draw from one reproducible stream.
func TestWorkloadSharedGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	first := GenEventWorkloadRand(rng, 100, 200, 3, 10, 20)
	second := GenEventWorkloadRand(rng, 100, 200, 3, 10, 20)
	if reflect.DeepEqual(first.Complex, second.Complex) && reflect.DeepEqual(first.Docs, second.Docs) {
		t.Fatal("shared generator repeated itself across calls")
	}

	rng2 := rand.New(rand.NewSource(7))
	again := GenEventWorkloadRand(rng2, 100, 200, 3, 10, 20)
	if !reflect.DeepEqual(first, again) {
		t.Fatal("same stream start produced a different first workload")
	}
}

// TestRandomTreeReproducible pins RandomTree the same way.
func TestRandomTreeReproducible(t *testing.T) {
	a := RandomTree(11, 200, 6)
	b := RandomTree(11, 200, 6)
	if a.XML() != b.XML() {
		t.Fatal("same seed produced different trees")
	}
	c := RandomTreeRand(rand.New(rand.NewSource(11)), 200, 6)
	if a.XML() != c.XML() {
		t.Fatal("injected generator diverged from the seed entry point")
	}
}

// TestSiteFetchReproducible checks the site contract Fetch(url, version)
// depends only on its arguments and the spec — crawls replay exactly.
func TestSiteFetchReproducible(t *testing.T) {
	s1 := NewSite(SiteSpec{BaseURL: "http://shop.example/", Pages: 3, Products: 5, Seed: 9, HTMLShare: 1})
	s2 := NewSite(SiteSpec{BaseURL: "http://shop.example/", Pages: 3, Products: 5, Seed: 9, HTMLShare: 1})
	for _, url := range s1.XMLURLs() {
		for v := 1; v <= 4; v++ {
			if s1.FetchXML(url, v).XML() != s2.FetchXML(url, v).XML() {
				t.Fatalf("FetchXML(%s, %d) not reproducible", url, v)
			}
		}
	}
	for _, url := range s1.HTMLURLs() {
		if string(s1.FetchHTML(url, 2)) != string(s2.FetchHTML(url, 2)) {
			t.Fatalf("FetchHTML(%s) not reproducible", url)
		}
	}
}

// TestFetchXMLBytesMatchesDOM pins the byte renderer to the canonical
// serialisation: commits through the byte path and the DOM path must
// store the same tree for the same (url, version).
func TestFetchXMLBytesMatchesDOM(t *testing.T) {
	site := NewSite(SiteSpec{BaseURL: "http://shop0.example/", Seed: 42, Pages: 3})
	for _, url := range site.XMLURLs() {
		for v := 1; v <= 6; v++ {
			raw := string(site.FetchXMLBytes(url, v))
			if dom := site.FetchXML(url, v).XML(); dom != raw {
				t.Fatalf("%s v%d: bytes %q != DOM serialisation %q", url, v, raw, dom)
			}
		}
	}
}

// TestRareWordRate checks the RareWord knob: the word appears on roughly
// one page in RareEvery and nowhere else.
func TestRareWordRate(t *testing.T) {
	const pages = 200
	site := NewSite(SiteSpec{
		BaseURL: "http://rare.example/", Seed: 7, Pages: pages,
		RareWord: "zyzzyva", RareEvery: 20,
	})
	hits := 0
	for _, url := range site.XMLURLs() {
		if strings.Contains(string(site.FetchXMLBytes(url, 1)), "zyzzyva") {
			hits++
		}
	}
	if hits == 0 || hits > pages/5 {
		t.Fatalf("rare word on %d/%d pages, want about %d", hits, pages, pages/20)
	}
	plain := NewSite(SiteSpec{BaseURL: "http://rare.example/", Seed: 7, Pages: 5})
	for _, url := range plain.XMLURLs() {
		if strings.Contains(string(plain.FetchXMLBytes(url, 1)), "zyzzyva") {
			t.Fatalf("rare word leaked into a site without the knob")
		}
	}
}
