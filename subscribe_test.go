package xymon

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestSubscribeRefreshHintsOracle holds System.Subscribe, which hands the
// crawler only the new subscription's refresh statements, to a reference
// that re-applies the aggregate of the whole base
// (Crawler.ApplyRefreshHints(Manager.RefreshHints())) after every
// subscribe. A seeded random sequence of subscribes, unsubscribes, AddSite
// calls and DurableDir restarts runs against both; after every op each
// page must have the same refresh period in both crawlers.
func TestSubscribeRefreshHintsOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { refreshHintsOracle(t, seed) })
	}
}

func refreshHintsOracle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var sites []*Site
	var urls, hot []string
	for i := 0; i < 4; i++ {
		site := NewSite(SiteSpec{BaseURL: fmt.Sprintf("http://hint%d.example", i), Pages: 3, Products: 2, Seed: int64(i)})
		sites = append(sites, site)
		urls = append(urls, site.XMLURLs()...)
		hot = append(hot, site.XMLURLs()[0])
	}
	// A hinted URL no site owns stays unknown to both crawlers.
	urls = append(urls, "http://nosite.example/x.xml")
	// Frequencies tighter, equal to and looser than the default period.
	freqs := []string{"hourly", "daily", "biweekly", "weekly", "monthly"}

	clock := func() time.Time { return time.Date(2001, 5, 21, 0, 0, 0, 0, time.UTC) }
	open := func(dir string) *System {
		t.Helper()
		s, err := New(Options{DurableDir: dir, Clock: clock})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}
	dir, refDir := t.TempDir(), t.TempDir()
	sys, ref := open(dir), open(refDir)
	t.Cleanup(func() {
		sys.Close()
		ref.Close()
	})
	added := 0
	addSite := func() string {
		sys.AddSite(sites[added])
		ref.AddSite(sites[added])
		added++
		return fmt.Sprintf("AddSite %d", added-1)
	}
	check := func(step int, op string) {
		t.Helper()
		for _, u := range urls {
			if got, want := sys.Crawler.Period(u), ref.Crawler.Period(u); got != want {
				t.Fatalf("step %d (%s): Period(%s) = %v, reference %v", step, op, u, got, want)
			}
		}
	}

	var live []string
	restarts := 0
	check(-1, addSite()) // a site known before any subscription
	for step := 0; step < 150; step++ {
		var op string
		switch k := rng.Intn(20); {
		case k < 11 || len(live) == 0:
			name := fmt.Sprintf("S%d", step)
			var b strings.Builder
			fmt.Fprintf(&b, "subscription %s\nmonitoring select <P/> where URL extends \"http://hint0.example/\"\n", name)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				u := urls[rng.Intn(len(urls))]
				if rng.Intn(2) == 0 {
					u = hot[rng.Intn(len(hot))]
				}
				fmt.Fprintf(&b, "refresh %q %s\n", u, freqs[rng.Intn(len(freqs))])
			}
			src := b.String()
			if _, err := sys.Subscribe(src); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			if _, err := ref.Manager.Subscribe(src); err != nil {
				t.Fatalf("reference Subscribe: %v", err)
			}
			ref.Crawler.ApplyRefreshHints(ref.Manager.RefreshHints())
			live = append(live, name)
			op = "subscribe " + name
		case k < 16:
			i := rng.Intn(len(live))
			name := live[i]
			live = append(live[:i], live[i+1:]...)
			if err := sys.Unsubscribe(name); err != nil {
				t.Fatalf("Unsubscribe: %v", err)
			}
			if err := ref.Manager.Unsubscribe(name); err != nil {
				t.Fatalf("reference Unsubscribe: %v", err)
			}
			op = "unsubscribe " + name
		case k < 19:
			if added == len(sites) {
				continue
			}
			op = addSite()
		default:
			// Restart: the base recovers from the journal, the crawler
			// starts empty and learns every hint again through AddSite.
			if err := sys.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := ref.Close(); err != nil {
				t.Fatalf("reference Close: %v", err)
			}
			sys, ref = open(dir), open(refDir)
			n := added
			added = 0
			for added < n {
				addSite()
			}
			restarts++
			op = "restart"
		}
		check(step, op)
	}
	if added != len(sites) || restarts == 0 {
		t.Errorf("sequence added %d of %d sites and restarted %d times; want every site and a restart", added, len(sites), restarts)
	}
}
