// Command xymond runs the subscription system as a daemon with the web
// front-end of Section 3: users post subscriptions through an HTTP form
// (the paper uses an Apache server), documents are pushed through an HTTP
// API or crawled from built-in synthetic sites, and reports are consulted
// on the web ("which seems more appropriate for very large reports").
//
//	xymond [-addr :8080] [-durable dir] [-data dir] [-sites n] [-crawl 1m] [-workers n]
//
// -durable keeps the subscription base, pending reports, trigger marks
// and the notification change-stream in write-ahead logs under dir, and
// recovers them at startup.
//
// Endpoints:
//
//	GET  /               subscription form + system status
//	POST /subscribe      body: subscription text → 201 or 400
//	POST /unsubscribe?name=N
//	POST /push?url=U&dtd=D&domain=X   body: XML document
//	POST /pushhtml?url=U              body: HTML page
//	GET  /reports        latest reports (web consultation)
//	GET  /stats          JSON counters
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"html"
	"io"
	"log"
	"net/http"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"xymon"
	"xymon/internal/alerter"
	"xymon/internal/flow"
)

var (
	addr     = flag.String("addr", ":8080", "HTTP listen address")
	durable  = flag.String("durable", "", "durability directory: write-ahead logs for subscriptions, reports, triggers and the change-stream (recovered at startup)")
	sites    = flag.Int("sites", 0, "number of built-in synthetic sites to crawl")
	crawlInt = flag.Duration("crawl", time.Minute, "crawl loop interval")
	maxKeep  = flag.Int("keep", 100, "reports retained for web consultation")
	workers  = flag.Int("workers", 4, "document-flow workers (the threaded alerters of Section 6.1)")
	dataDir  = flag.String("data", "", "warehouse snapshot directory (loaded at startup; POST /save persists)")
)

type server struct {
	sys *xymon.System

	mu      sync.Mutex
	reports []*xymon.Report
}

func main() {
	flag.Parse()
	srv := &server{}
	sys, err := xymon.New(xymon.Options{
		DurableDir: *durable,
		DataDir:    *dataDir,
		Delivery: xymon.DeliveryFunc(func(r *xymon.Report) error {
			srv.mu.Lock()
			defer srv.mu.Unlock()
			srv.reports = append(srv.reports, r)
			if len(srv.reports) > *maxKeep {
				srv.reports = srv.reports[len(srv.reports)-*maxKeep:]
			}
			return nil
		}),
	})
	if err != nil {
		log.Fatalf("xymond: %v", err)
	}
	srv.sys = sys

	for i := 0; i < *sites; i++ {
		sys.AddSite(xymon.NewSite(xymon.SiteSpec{
			BaseURL: fmt.Sprintf("http://shop%d.example/", i),
			Pages:   5, Products: 20, Seed: int64(i), HTMLShare: 2,
		}))
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var loops sync.WaitGroup
	var runner *flow.Runner
	if *sites > 0 {
		// Documents flow from the crawler through a bounded worker pool —
		// the in-process version of the paper's threaded alerters and
		// flow-split processors.
		runner = flow.NewRunner(*workers, 256, sys.Manager.ProcessDoc)
		sys.Crawler.SetSink(func(d *alerter.Doc) {
			if err := runner.Submit(d); err != nil {
				log.Printf("crawl: dropping %s: %v", d.Meta.URL, err)
			}
		})
	}
	loops.Add(1)
	go func() {
		defer loops.Done()
		ticker := time.NewTicker(*crawlInt)
		defer ticker.Stop()
		for {
			if *sites > 0 {
				if n := sys.Crawl(); n > 0 {
					log.Printf("crawl: fetched %d pages", n)
				}
			}
			sys.Tick()
			select {
			case <-ticker.C:
			case <-ctx.Done():
				return
			}
		}
	}()

	mux := http.NewServeMux()
	mux.HandleFunc("GET /", srv.handleIndex)
	mux.HandleFunc("POST /subscribe", srv.handleSubscribe)
	mux.HandleFunc("POST /unsubscribe", srv.handleUnsubscribe)
	mux.HandleFunc("POST /push", srv.handlePush)
	mux.HandleFunc("POST /pushhtml", srv.handlePushHTML)
	mux.HandleFunc("GET /reports", srv.handleReports)
	mux.HandleFunc("GET /stats", srv.handleStats)
	mux.HandleFunc("POST /save", srv.handleSave)
	log.Printf("xymond listening on %s (%d synthetic sites)", *addr, *sites)

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("xymond: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting requests, stop the crawl/tick
	// loop, drain the worker pool, then release the durable logs.
	log.Printf("xymond: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("xymond: shutdown: %v", err)
	}
	stop()
	loops.Wait()
	if runner != nil {
		runner.Close()
	}
	if err := sys.Close(); err != nil {
		log.Printf("xymond: close: %v", err)
	}
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	st := s.sys.Stats()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<html><head><title>xymond</title></head><body>
<h1>Xyleme subscription system</h1>
<p>%d subscriptions, %d complex events, %d atomic events, %d pages warehoused,
%d documents processed, %d notifications.</p>
<form method="POST" action="/subscribe">
<textarea name="subscription" rows="14" cols="80">subscription MyXyleme
monitoring
select &lt;UpdatedPage url=URL/&gt;
where URL extends "http://shop0.example/" and modified self
report when immediate
</textarea><br>
<input type="submit" value="Subscribe">
</form>
<p><a href="/reports">reports</a> · <a href="/stats">stats</a></p>
</body></html>`,
		st.Manager.Subscriptions, st.Manager.ComplexEvents, st.Manager.AtomicEvents,
		st.Pages, st.Manager.DocsProcessed, st.Manager.Notifications)
}

func (s *server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	src := r.FormValue("subscription")
	if src == "" {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		src = string(body)
	}
	sub, err := s.sys.Subscribe(src)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusCreated)
	fmt.Fprintf(w, "subscribed %s\n", sub.Name)
}

func (s *server) handleUnsubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.FormValue("name")
	if err := s.sys.Unsubscribe(name); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	fmt.Fprintf(w, "unsubscribed %s\n", name)
}

func (s *server) handlePush(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n, err := s.sys.PushXML(url, r.URL.Query().Get("dtd"), r.URL.Query().Get("domain"), string(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "%d notifications\n", n)
}

func (s *server) handlePushHTML(w http.ResponseWriter, r *http.Request) {
	url := r.URL.Query().Get("url")
	if url == "" {
		http.Error(w, "missing url parameter", http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n, err := s.sys.PushHTML(url, body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "%d notifications\n", n)
}

func (s *server) handleReports(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	reports := append([]*xymon.Report(nil), s.reports...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><body><h1>%d reports</h1>", len(reports))
	for i := len(reports) - 1; i >= 0; i-- {
		rep := reports[i]
		fmt.Fprintf(w, "<h2>%s — %s (%d notifications)</h2><pre>%s</pre>",
			html.EscapeString(rep.Subscription), rep.Time.Format(time.RFC3339),
			rep.Notifications, html.EscapeString(rep.Doc.XML()))
	}
	fmt.Fprint(w, "</body></html>")
}

func (s *server) handleSave(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.SaveWarehouse(r.URL.Query().Get("dir")); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintln(w, "warehouse saved")
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(s.sys.Stats()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
