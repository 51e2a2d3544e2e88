// Package manager implements the Subscription Manager of the architecture
// (Section 3): it parses and registers subscriptions, chooses the internal
// codes of atomic events, warns the alerters of new events, manages the
// complex events of the Monitoring Query Processor, wires continuous
// queries into the Trigger Engine and report specifications into the
// Reporter, and persists everything through a journal so the system
// recovers its subscription base on restart (the paper uses MySQL; the
// journal interface plays that role).
package manager

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xymon/internal/alerter"
	"xymon/internal/core"
	"xymon/internal/reporter"
	"xymon/internal/sublang"
	"xymon/internal/trigger"
	"xymon/internal/warehouse"
	"xymon/internal/xmldom"
	"xymon/internal/xydiff"
	"xymon/internal/xyquery"
)

// ErrDuplicateSubscription is returned when a subscription name is taken.
var ErrDuplicateSubscription = errors.New("manager: subscription name already registered")

// ErrUnknownSubscription is returned for operations on unknown names.
var ErrUnknownSubscription = errors.New("manager: unknown subscription")

// registeredQuery is one compiled monitoring query: its complex event id
// and the atomic event codes it is a conjunction of.
type registeredQuery struct {
	sub    string
	mq     *sublang.MonitoringQuery
	id     core.ComplexID
	events core.EventSet
}

type registeredSub struct {
	src     string
	sub     *sublang.Subscription
	queries []*registeredQuery
	// a posteriori inhibition state (Section 5.4)
	suspended   bool
	notifWindow int
	docsWindow  int
}

// Stats counts the manager's activity.
type Stats struct {
	Subscriptions int
	AtomicEvents  int
	ComplexEvents int
	DocsProcessed uint64
	AlertsSent    uint64 // alerts with at least one strong event
	WeakSuppress  uint64 // alerts suppressed by the weak/strong rule
	Notifications uint64
	Suspensions   uint64 // subscriptions inhibited a posteriori
}

// Manager owns the subscription base and drives the notification chain.
type Manager struct {
	mu       sync.Mutex
	matcher  *core.Matcher
	pipeline *alerter.Pipeline
	reporter *reporter.Reporter
	trigger  *trigger.Engine
	clock    func() time.Time
	journal  Journal

	condCodes map[string]core.Event // canonical condition -> code
	condRef   map[core.Event]int
	condOf    map[core.Event]sublang.Condition
	nextEvent core.Event

	complexOf   map[core.ComplexID]*registeredQuery
	nextComplex core.ComplexID

	subs map[string]*registeredSub

	maxCost     float64
	inhibitRate float64
	suspensions uint64

	// The per-document counters are atomics, not m.mu state: ProcessDoc
	// runs on every fetched document across all flow workers, and the
	// happy path (no alert, or a weak-only alert) must not serialise on
	// the subscription-base lock.
	docsProcessed atomic.Uint64
	alertsSent    atomic.Uint64
	weakSuppress  atomic.Uint64
	notifications atomic.Uint64
}

// processScratch is the per-alert working state of ProcessAlert, recycled
// through a sync.Pool so a document that raises notifications performs no
// map or slice allocation for bookkeeping (the payload elements still
// allocate — they are handed to the Reporter).
type processScratch struct {
	matched []core.ComplexID
	queries []*registeredQuery
	batch   []reporter.Notification
	trig    []triggerRef
	seen    map[uint64]struct{}
	perSub  map[string]int
	// newSet/updSet index the document's Classification for the `new X` /
	// `updated X` payload filters. Built at most once per alert
	// (ensureChangeSets) and shared by every matched query, where each
	// query used to classify the document and build its own maps.
	newSet    map[*xmldom.Node]bool
	updSet    map[*xmldom.Node]bool
	setsReady bool
}

// ensureChangeSets fills newSet/updSet from the document classification,
// once per alert; later queries reuse the same maps.
func (sc *processScratch) ensureChangeSets(cl *xydiff.Classification) {
	if sc.setsReady {
		return
	}
	sc.setsReady = true
	for _, n := range cl.NewElems {
		sc.newSet[n] = true
	}
	for _, n := range cl.UpdatedElems {
		sc.updSet[n] = true
	}
}

// triggerRef records a (subscription, label) pair whose continuous
// queries must be poked once the notification batch is delivered.
type triggerRef struct{ sub, label string }

var processPool = sync.Pool{New: func() any {
	return &processScratch{
		seen:   make(map[uint64]struct{}, 16),
		perSub: make(map[string]int, 8),
		newSet: make(map[*xmldom.Node]bool, 16),
		updSet: make(map[*xmldom.Node]bool, 16),
	}
}}

// release scrubs pointer-carrying state and returns the scratch to the
// pool; maps are cleared, slices keep their capacity.
func (sc *processScratch) release() {
	clear(sc.seen)
	clear(sc.perSub)
	clear(sc.newSet)
	clear(sc.updSet)
	sc.setsReady = false
	sc.matched = sc.matched[:0] // plain values, no scrub needed
	for i := range sc.queries {
		sc.queries[i] = nil
	}
	sc.queries = sc.queries[:0]
	for i := range sc.batch {
		sc.batch[i] = reporter.Notification{}
	}
	sc.batch = sc.batch[:0]
	sc.trig = sc.trig[:0]
	processPool.Put(sc)
}

// Config wires the manager to the other modules. Matcher, Pipeline,
// Reporter and Trigger must be non-nil; Clock defaults to time.Now and
// Journal to a no-op in-memory journal.
type Config struct {
	Matcher  *core.Matcher
	Pipeline *alerter.Pipeline
	Reporter *reporter.Reporter
	Trigger  *trigger.Engine
	Clock    func() time.Time
	Journal  Journal
	// MaxCost rejects subscriptions whose a priori cost estimate exceeds
	// the budget (0 disables the check). See Estimate.
	MaxCost float64
	// InhibitRate suspends a subscription a posteriori when it produces
	// more than this many notifications per processed document, averaged
	// over a window (0 disables inhibition).
	InhibitRate float64
}

// New assembles a manager.
func New(cfg Config) *Manager {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Journal == nil {
		cfg.Journal = NopJournal{}
	}
	return &Manager{
		matcher:     cfg.Matcher,
		pipeline:    cfg.Pipeline,
		reporter:    cfg.Reporter,
		trigger:     cfg.Trigger,
		clock:       cfg.Clock,
		journal:     cfg.Journal,
		condCodes:   make(map[string]core.Event),
		condRef:     make(map[core.Event]int),
		condOf:      make(map[core.Event]sublang.Condition),
		nextEvent:   1,
		complexOf:   make(map[core.ComplexID]*registeredQuery),
		subs:        make(map[string]*registeredSub),
		maxCost:     cfg.MaxCost,
		inhibitRate: cfg.InhibitRate,
	}
}

// Subscribe parses, validates, registers and journals a subscription
// written in the subscription language.
func (m *Manager) Subscribe(src string) (*sublang.Subscription, error) {
	sub, err := sublang.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := m.register(src, sub, true); err != nil {
		return nil, err
	}
	return sub, nil
}

// SubscribeParsed registers an already-parsed subscription (no journal
// entry is written; used by tests and programmatic callers).
func (m *Manager) SubscribeParsed(sub *sublang.Subscription) error {
	return m.register("", sub, false)
}

func (m *Manager) register(src string, sub *sublang.Subscription, journal bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.subs[sub.Name]; dup {
		return ErrDuplicateSubscription
	}
	if m.maxCost > 0 {
		if cost := Estimate(sub); cost.Total() > m.maxCost {
			return fmt.Errorf("%w: estimated cost %.0f exceeds budget %.0f",
				ErrTooExpensive, cost.Total(), m.maxCost)
		}
	}
	rs := &registeredSub{src: src, sub: sub}
	// Compile monitoring queries: each where clause becomes one complex
	// event over deduplicated atomic event codes.
	for _, mq := range sub.Monitoring {
		events := make([]core.Event, 0, len(mq.Where))
		for _, cond := range mq.Where {
			events = append(events, m.internEventLocked(cond))
		}
		id := m.nextComplex
		m.nextComplex++
		set := core.Canonical(events)
		if err := m.matcher.Add(id, set); err != nil {
			m.rollbackLocked(rs)
			return fmt.Errorf("manager: registering complex event: %w", err)
		}
		rq := &registeredQuery{sub: sub.Name, mq: mq, id: id, events: set}
		m.complexOf[id] = rq
		rs.queries = append(rs.queries, rq)
	}
	m.reporter.Register(sub.Name, sub.Report)
	for _, cq := range sub.Continuous {
		m.trigger.Register(sub.Name, cq)
	}
	for _, v := range sub.Virtual {
		if err := m.reporter.Follow(sub.Name, v.Subscription); err != nil {
			m.removeLocked(rs)
			return err
		}
	}
	m.subs[sub.Name] = rs
	if journal {
		// Appending under m.mu is deliberate: the journal must record
		// subscribe/unsubscribe in the order they took effect, and the
		// Journal implementations are plain file/buffer writers.
		//xyvet:ignore lockcheck
		if err := m.journal.Append(Record{Op: "subscribe", Name: sub.Name, Source: src}); err != nil {
			// Not journalled, so not registered: a retry must not hit
			// ErrDuplicateSubscription, and a restart would not recover it.
			m.removeLocked(rs)
			return fmt.Errorf("manager: journal: %w", err)
		}
	}
	return nil
}

// removeLocked takes rs out of the matcher, the alerters, the Reporter,
// the Trigger Engine and the base; it also undoes a partial registration.
func (m *Manager) removeLocked(rs *registeredSub) {
	m.rollbackLocked(rs)
	m.reporter.Unregister(rs.sub.Name)
	m.trigger.Unregister(rs.sub.Name)
	delete(m.subs, rs.sub.Name)
}

// rollbackLocked releases the complex and atomic events of rs.
func (m *Manager) rollbackLocked(rs *registeredSub) {
	for _, rq := range rs.queries {
		_ = m.matcher.Remove(rq.id)
		delete(m.complexOf, rq.id)
		for _, e := range rq.events {
			m.releaseEventLocked(e)
		}
	}
}

// Unsubscribe removes a subscription and journals the removal.
func (m *Manager) Unsubscribe(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.subs[name]
	if !ok {
		return ErrUnknownSubscription
	}
	// Journalled first, under m.mu for ordering (see register): when the
	// append fails the subscription stays live, as a restart would find it.
	//xyvet:ignore lockcheck
	if err := m.journal.Append(Record{Op: "unsubscribe", Name: name}); err != nil {
		return fmt.Errorf("manager: journal: %w", err)
	}
	m.removeLocked(rs)
	return nil
}

// internEventLocked returns the atomic event code of a condition,
// allocating one and warning the alerters on first use. Conditions are
// deduplicated by their canonical string form, so a thousand subscriptions
// watching Amazon's URL share one atomic event (the load concentration the
// paper's parameter k models).
func (m *Manager) internEventLocked(cond sublang.Condition) core.Event {
	key := cond.String()
	if code, ok := m.condCodes[key]; ok {
		m.condRef[code]++
		return code
	}
	code := m.nextEvent
	m.nextEvent++
	m.condCodes[key] = code
	m.condRef[code] = 1
	m.condOf[code] = cond
	m.pipeline.Register(code, cond)
	return code
}

func (m *Manager) releaseEventLocked(code core.Event) {
	m.condRef[code]--
	if m.condRef[code] > 0 {
		return
	}
	cond := m.condOf[code]
	m.pipeline.Unregister(code, cond)
	delete(m.condRef, code)
	delete(m.condOf, code)
	delete(m.condCodes, cond.String())
}

// ProcessDoc runs the full notification chain on one fetched document:
// alerter detection, the weak/strong filter, monitoring-query matching and
// notification dispatch. It returns the number of notifications produced.
// The happy path — no event of interest, or a weak-only alert — touches
// only atomics, never m.mu, so flow workers do not serialise here.
func (m *Manager) ProcessDoc(d *alerter.Doc) int {
	m.docsProcessed.Add(1)
	a := m.pipeline.Detect(d)
	if a == nil {
		return 0
	}
	if !a.Strong {
		m.weakSuppress.Add(1)
		return 0
	}
	return m.ProcessAlert(a)
}

// ProcessAlert matches an alert against the subscription base and
// dispatches the notifications of every matched monitoring query. The
// notifications of one alert are handed to the Reporter as a single batch,
// amortising its lock acquisitions across the whole document.
func (m *Manager) ProcessAlert(a *alerter.Alert) int {
	sc := processPool.Get().(*processScratch)
	sc.matched = m.matcher.MatchAppend(sc.matched[:0], a.Events)
	m.alertsSent.Add(1)
	m.mu.Lock()
	for _, id := range sc.matched {
		if rq := m.complexOf[id]; rq != nil {
			sc.queries = append(sc.queries, rq)
		}
	}
	m.mu.Unlock()

	now := m.clock()
	for _, rq := range sc.queries {
		label := rq.mq.Label()
		elems := m.buildNotifications(rq, a.Doc, sc)
		triggered := false
		for _, el := range elems {
			// Disjunctive where clauses compile to several complex events
			// sharing one select (see sublang); when a document matches
			// more than one disjunct, the subscriber still gets each
			// notification payload once. The key is a structural hash of
			// (subscription, label, payload) — serialising the payload to
			// XML per notification was the dominant dedup cost.
			key := el.Hash64(xmldom.HashFold(xmldom.HashFold(xmldom.HashSeed(), rq.sub), label))
			if _, dup := sc.seen[key]; dup {
				continue
			}
			sc.seen[key] = struct{}{}
			sc.batch = append(sc.batch, reporter.Notification{
				Subscription: rq.sub,
				Label:        label,
				Element:      el,
				Time:         now,
			})
			sc.perSub[rq.sub]++
			triggered = true
		}
		// Continuous queries may be triggered by this notification; fire
		// them after the batch below, once the Reporter has the payloads.
		if triggered {
			sc.trig = append(sc.trig, triggerRef{sub: rq.sub, label: label})
		}
	}
	produced := len(sc.batch)
	m.reporter.NotifyBatch(sc.batch)
	for _, tr := range sc.trig {
		m.trigger.OnNotification(tr.sub, tr.label)
	}
	m.notifications.Add(uint64(produced))
	if m.inhibitRate > 0 && len(sc.perSub) > 0 {
		m.mu.Lock()
		// Only subscriptions that produced notifications advance their
		// window: silent subscriptions can never exceed the rate budget,
		// and touching the whole base per alert would not scale.
		for sub, n := range sc.perSub {
			if rs := m.subs[sub]; rs != nil {
				m.noteNotificationsLocked(rs, n)
			}
		}
		m.mu.Unlock()
	}
	sc.release()
	return produced
}

// buildNotifications materialises the select clause of a matched
// monitoring query against the triggering document.
func (m *Manager) buildNotifications(rq *registeredQuery, d *alerter.Doc, sc *processScratch) []*xmldom.Node {
	sel := rq.mq.Select
	switch {
	case sel != nil && sel.Literal != nil:
		e := m.literalElement(sel.Literal, d)
		// The full select clause: expand content variables to the matched
		// elements and inline fixed text.
		for _, c := range sel.Literal.Children {
			switch {
			case !c.IsVar:
				e.AppendChild(xmldom.Text(c.Text))
			case builtinValue(c.Var, d) != "":
				e.AppendChild(xmldom.Text(builtinValue(c.Var, d)))
			default:
				for _, n := range m.varElements(rq, c.Var, d, sc) {
					e.AppendChild(n)
				}
			}
		}
		return []*xmldom.Node{e}
	case sel != nil && sel.Var != "":
		return m.varElements(rq, sel.Var, d, sc)
	default:
		e := xmldom.Element("notification")
		e.WithAttr("url", d.Meta.URL)
		e.WithAttr("status", d.Status.String())
		return []*xmldom.Node{e}
	}
}

// builtinValue resolves the built-in notification variables usable in
// select literals; empty when name is not a built-in.
func builtinValue(name string, d *alerter.Doc) string {
	switch name {
	case "URL":
		return d.Meta.URL
	case "DATE":
		return d.Meta.LastAccessed.Format(time.RFC3339)
	case "DOCID":
		return fmt.Sprintf("%d", d.Meta.DocID)
	case "DTD":
		return d.Meta.DTD
	case "DOMAIN":
		return d.Meta.Domain
	case "STATUS":
		return d.Status.String()
	}
	return ""
}

// literalElement instantiates `<UpdatedPage url=URL/>`-style literals with
// the document's metadata.
func (m *Manager) literalElement(lit *sublang.LiteralElem, d *alerter.Doc) *xmldom.Node {
	e := xmldom.Element(lit.Tag)
	for _, a := range lit.Attrs {
		if !a.IsVar {
			e.WithAttr(a.Name, a.Value)
			continue
		}
		e.WithAttr(a.Name, builtinValue(a.Value, d))
	}
	return e
}

// varElements resolves `select X` payloads: the elements bound to X in the
// current document, filtered by the change pattern the where clause put on
// X (so `new X` returns only the new elements).
func (m *Manager) varElements(rq *registeredQuery, v string, d *alerter.Doc, sc *processScratch) []*xmldom.Node {
	if d.Doc == nil || d.Doc.Root == nil {
		return nil
	}
	var binding *sublang.FromBinding
	for i := range rq.mq.From {
		if rq.mq.From[i].Var == v {
			binding = &rq.mq.From[i]
			break
		}
	}
	if binding == nil {
		return nil
	}
	nodes := xyquery.Resolve(binding.Path, []*xmldom.Node{d.Doc.Root})
	change := sublang.NoChange
	var wordCond *sublang.Condition
	for i := range rq.mq.Where {
		c := &rq.mq.Where[i]
		if c.Kind != sublang.CondElement || c.Var != v {
			continue
		}
		if c.Change != sublang.NoChange && change == sublang.NoChange {
			change = c.Change
		}
		if c.Str != "" && wordCond == nil {
			wordCond = c
		}
	}
	// A contains constraint on the variable restricts the payload to the
	// elements that actually carry the word.
	if wordCond != nil {
		word := xmldom.NormalizeWord(wordCond.Str)
		kept := nodes[:0]
		for _, n := range nodes {
			if wordCond.Strict {
				for _, c := range n.Children {
					if c.Type == xmldom.TextNode && xmldom.ContainsWord(c.Text, word) {
						kept = append(kept, n)
						break
					}
				}
			} else if xmldom.ContainsWord(n.TextContent(), word) {
				kept = append(kept, n)
			}
		}
		nodes = kept
	}
	if change == sublang.NoChange {
		return cloneAll(nodes)
	}
	switch {
	case change == sublang.OpNew && d.Status == warehouse.StatusNew:
		// Every element of a brand-new document is new.
		return cloneAll(nodes)
	case d.Status == warehouse.StatusUpdated && d.Delta != nil:
		// The classification is computed once per document (on the Doc,
		// shared with the XML alerter) and its node sets once per alert (on
		// the scratch, shared by every matched query).
		cl := d.Classification()
		if cl == nil {
			return nil
		}
		var wantSet map[*xmldom.Node]bool
		switch change {
		case sublang.OpNew:
			sc.ensureChangeSets(cl)
			wantSet = sc.newSet
		case sublang.OpUpdated:
			sc.ensureChangeSets(cl)
			wantSet = sc.updSet
		case sublang.OpDeleted:
			// Deleted elements are in the old version; match by tag among
			// the deleted subtrees.
			var out []*xmldom.Node
			tag := lastTag(binding.Path)
			for _, sub := range cl.DeletedSubtrees {
				sub.PreOrder(func(n *xmldom.Node) bool {
					if n.Type == xmldom.ElementNode && (tag == "" || n.Tag == tag) {
						out = append(out, n.Clone())
					}
					return true
				})
			}
			return out
		}
		var out []*xmldom.Node
		for _, n := range nodes {
			if wantSet[n] {
				out = append(out, n.Clone())
			}
		}
		return out
	}
	return nil
}

func lastTag(p xyquery.Path) string {
	if len(p.Steps) == 0 {
		return ""
	}
	t := p.Steps[len(p.Steps)-1].Name
	if t == "*" {
		return ""
	}
	return t
}

func cloneAll(nodes []*xmldom.Node) []*xmldom.Node {
	out := make([]*xmldom.Node, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.Clone())
	}
	return out
}

// Subscriptions lists the registered subscription names.
func (m *Manager) Subscriptions() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.subs))
	for name := range m.subs {
		out = append(out, name)
	}
	return out
}

// Subscription returns the parsed form of a registered subscription.
func (m *Manager) Subscription(name string) (*sublang.Subscription, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.subs[name]
	if !ok {
		return nil, ErrUnknownSubscription
	}
	return rs.sub, nil
}

// RefreshHints aggregates the refresh statements of all subscriptions,
// keyed by URL (the smallest period wins). The crawler consults them to
// boost page importance (Section 2.2). The walk is over the whole base:
// System.AddSite applies it once per new site (which covers recovered
// subscriptions), while System.Subscribe applies only the new
// subscription's own statements.
func (m *Manager) RefreshHints() map[string]sublang.Frequency {
	m.mu.Lock()
	defer m.mu.Unlock()
	hints := make(map[string]sublang.Frequency)
	for _, rs := range m.subs {
		for _, r := range rs.sub.Refresh {
			if cur, ok := hints[r.URL]; !ok || r.Freq < cur {
				hints[r.URL] = r.Freq
			}
		}
	}
	return hints
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Subscriptions: len(m.subs),
		AtomicEvents:  len(m.condRef),
		ComplexEvents: len(m.complexOf),
		DocsProcessed: m.docsProcessed.Load(),
		AlertsSent:    m.alertsSent.Load(),
		WeakSuppress:  m.weakSuppress.Load(),
		Notifications: m.notifications.Load(),
		Suspensions:   m.suspensions,
	}
}

// Recover replays a journal, restoring the subscription base. Call it on
// an empty manager before processing documents. Recover is idempotent: a
// subscription already registered under its journalled name is skipped,
// so replaying the same journal twice (or a checkpoint that overlaps its
// tail) cannot duplicate the base.
func (m *Manager) Recover(j Journal) error {
	records, err := j.Records()
	if err != nil {
		return err
	}
	for _, r := range records {
		switch r.Op {
		case "subscribe":
			sub, err := sublang.Parse(r.Source)
			if err != nil {
				return fmt.Errorf("manager: recovering %q: %w", r.Name, err)
			}
			if err := m.register(r.Source, sub, false); errors.Is(err, ErrDuplicateSubscription) {
				continue
			} else if err != nil {
				return fmt.Errorf("manager: recovering %q: %w", r.Name, err)
			}
		case "unsubscribe":
			m.mu.Lock()
			if rs, ok := m.subs[r.Name]; ok {
				m.removeLocked(rs)
			}
			m.mu.Unlock()
		}
	}
	return nil
}

// Checkpoint compacts the journal down to the live subscription base:
// one subscribe record per registered subscription, with every
// journalled subscribe/unsubscribe before it truncated away. It is a
// no-op when the journal does not implement Compacter. Held under m.mu,
// so the snapshot is consistent with the append order register and
// Unsubscribe maintain.
func (m *Manager) Checkpoint() error {
	c, ok := m.journal.(Compacter)
	if !ok {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	live := make([]Record, 0, len(m.subs))
	for name, rs := range m.subs {
		if rs.src == "" {
			// Registered via SubscribeParsed: never journalled, so it has
			// no source text to recover from — leave it out, as Append did.
			continue
		}
		live = append(live, Record{Op: "subscribe", Name: name, Source: rs.src})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Name < live[j].Name })
	// Compacting under m.mu mirrors Append's ordering guarantee; see
	// register.
	//xyvet:ignore lockcheck
	if err := c.Compact(live); err != nil {
		return fmt.Errorf("manager: checkpoint: %w", err)
	}
	return nil
}

// ErrTooExpensive rejects a subscription whose a priori cost estimate
// exceeds the configured budget (Section 5.4).
var ErrTooExpensive = errors.New("manager: subscription too expensive")
