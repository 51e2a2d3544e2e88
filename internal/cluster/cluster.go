// Package cluster distributes the Monitoring Query Processor over the
// network, realising the two distributions of Section 4.2 across real
// processes. Every block speaks one wire protocol (wire.go) and every
// client routes by one partition Map (ring.go):
//
//   - Serve exposes one frozen core.Compact snapshot as a read-only
//     block. A static deployment is a StaticMap over such blocks — fixed
//     placement, no coordinator — with the base split by StaticBlock;
//     Dial returns a client for it after checking that every block holds
//     only the partitions the map reads from it.
//   - ServeDynamic exposes a live core.Matcher: the block accepts
//     subscription Add/Remove while serving matches, hosts the partitions
//     a versioned Map assigns to it, and participates in
//     coordinator-driven rebalancing (see coord.go); DialRing returns a
//     client that follows the coordinator's maps.
//
// Xyleme uses Corba between cluster nodes; the wire protocol here is a
// minimal length-prefixed binary exchange over the standard library's
// net package.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"xymon/internal/core"
	"xymon/internal/faults"
)

// maxSetLen bounds accepted event-set and result sizes (a million events
// per document is far beyond any real alert).
const maxSetLen = 1 << 20

// ErrProtocol reports a malformed exchange.
var ErrProtocol = errors.New("cluster: protocol error")

// DefaultReadIdle is the default per-request read deadline of a block
// server: roughly twice the client's default I/O timeout, so a healthy
// client's think-time between requests never trips it, while a silent
// client stops pinning a handler goroutine within seconds instead of
// until Close.
const DefaultReadIdle = 10 * time.Second

// serverConfig is the tunable envelope of a Server.
type serverConfig struct {
	readIdle  time.Duration
	faults    *faults.Injector
	advertise string
}

// ServerOption configures Serve and ServeDynamic.
type ServerOption func(*serverConfig)

// WithReadIdle bounds how long a handler waits for the next request
// before closing the connection (default DefaultReadIdle). Clients
// reconnect transparently; a connect-and-stall peer cannot pin a handler
// goroutine. Zero keeps the default; a negative value disables the
// deadline (the pre-deadline behaviour, for tests that need a hang).
func WithReadIdle(d time.Duration) ServerOption {
	return func(c *serverConfig) { c.readIdle = d }
}

// WithServerInjector arms the server-side fault seams: connection
// admission consults faults.PointAccept, and each request read and
// response write consult faults.PointServeRead / faults.PointServeWrite,
// all keyed by the remote address. A nil injector keeps the seams
// transparent — the production and chaos configurations differ only by
// the injector.
func WithServerInjector(in *faults.Injector) ServerOption {
	return func(c *serverConfig) { c.faults = in }
}

// WithAdvertise sets the address this block believes the partition map
// knows it by (default: the listener's address). The block refuses to
// read-serve partitions the installed map does not assign to that
// address — the guard that turns a stale client's misrouted match into a
// loud stale-map error instead of silently missing subscriptions.
func WithAdvertise(addr string) ServerOption {
	return func(c *serverConfig) { c.advertise = addr }
}

// Server serves match requests for one partition block.
type Server struct {
	matcher *core.Compact // read-only static block (nil in dynamic mode)
	dyn     *core.Matcher // dynamic block (nil in static mode)
	cfg     serverConfig
	acc     *acceptor

	// Dynamic-block state: the installed partition map and the partition
	// of every hosted subscription (avoiding a Definition lookup per
	// matched id on the filter path). smu nests outside the matcher's own
	// lock.
	smu  sync.RWMutex
	pmap Map
	part map[core.ComplexID]int
}

// Serve starts a read-only static block for the frozen snapshot on the
// given address ("127.0.0.1:0" picks a free port). It answers matches
// for any partitions asked of it and rejects subscription writes, dumps
// and drops. It returns immediately; use Addr for the bound address and
// Close to stop.
func Serve(addr string, block *core.Compact, opts ...ServerOption) (*Server, error) {
	return serve(addr, block, nil, opts)
}

// ServeDynamic starts a partition-map server around a live matcher.
// The matcher may start empty (a fresh block joining a cluster receives
// its partitions from the coordinator) or pre-loaded. The caller must
// not touch m afterwards — the server owns it.
func ServeDynamic(addr string, m *core.Matcher, opts ...ServerOption) (*Server, error) {
	if m == nil {
		m = core.NewMatcher()
	}
	return serve(addr, nil, m, opts)
}

func serve(addr string, block *core.Compact, dyn *core.Matcher, opts []ServerOption) (*Server, error) {
	cfg := serverConfig{readIdle: DefaultReadIdle}
	for _, o := range opts {
		o(&cfg)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if cfg.advertise == "" {
		cfg.advertise = ln.Addr().String()
	}
	s := &Server{matcher: block, dyn: dyn, cfg: cfg, part: make(map[core.ComplexID]int)}
	if block != nil {
		// A static block's map says what it holds: Version 0, so there is
		// no version to be stale against, and this block on every
		// partition it has subscriptions of. DialWith checks it against
		// the StaticMap it routes by.
		s.pmap.Assign = make([][]string, NumPartitions)
		block.Heads(func(e core.Event) {
			s.pmap.Assign[PartitionOfEvent(e)] = []string{cfg.advertise}
		})
	}
	if dyn != nil {
		// A pre-loaded matcher's subscriptions need their partitions on
		// record for the match filter and dumps.
		dyn.Range(func(id core.ComplexID, set core.EventSet) bool {
			s.part[id] = PartitionOf(set)
			return true
		})
	}
	s.acc = startAcceptor(ln, cfg.faults, s.handle)
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.acc.ln.Addr().String() }

// Len returns the number of subscriptions this block currently hosts.
func (s *Server) Len() int {
	if s.dyn != nil {
		return s.dyn.Len()
	}
	return s.matcher.Len()
}

// Close stops the listener, severs every active connection and waits
// for all handlers to drain.
func (s *Server) Close() error { return s.acc.close() }

// acceptor is the accept side shared by block servers and the
// coordinator: admission through the faults.PointAccept seam, backoff on
// transient accept errors, and tracking of live connections so close can
// sever them.
type acceptor struct {
	ln      net.Listener
	faults  *faults.Injector
	closing chan struct{}
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// startAcceptor serves ln, running handle on a goroutine of its own for
// every admitted connection and closing the connection when it returns.
func startAcceptor(ln net.Listener, in *faults.Injector, handle func(net.Conn)) *acceptor {
	a := &acceptor{ln: ln, faults: in, closing: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	a.wg.Add(1)
	go a.loop(handle)
	return a
}

// loop admits connections until close. Transient accept errors (EMFILE,
// ECONNABORTED, …) back off exponentially — 1ms doubling to a 1s cap,
// the crawler's retry idiom — instead of hot-spinning the CPU against a
// condition that needs time to clear; any successful accept resets the
// backoff.
func (a *acceptor) loop(handle func(net.Conn)) {
	defer a.wg.Done()
	backoff := time.Millisecond
	const backoffMax = time.Second
	for {
		conn, err := a.ln.Accept()
		if err != nil {
			select {
			case <-a.closing:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
			continue
		}
		backoff = time.Millisecond
		if err := a.faults.Check(faults.PointAccept, remoteKey(conn)); err != nil {
			conn.Close()
			continue
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return
		}
		a.conns[conn] = struct{}{}
		a.mu.Unlock()
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			defer func() {
				conn.Close()
				a.mu.Lock()
				delete(a.conns, conn)
				a.mu.Unlock()
			}()
			handle(conn)
		}()
	}
}

// close stops the listener, severs every live connection (a handler
// blocked on a peer that never speaks again must not wedge shutdown),
// and waits for all handlers to drain. Later calls return nil.
func (a *acceptor) close() error {
	a.mu.Lock()
	already := a.closed
	a.closed = true
	for conn := range a.conns {
		_ = conn.Close()
	}
	a.mu.Unlock()
	var err error
	if !already {
		close(a.closing)
		err = a.ln.Close()
	}
	a.wg.Wait()
	return err
}

func remoteKey(conn net.Conn) string {
	if addr := conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return ""
}

// serveFrames runs one connection's request loop, for block servers and
// the coordinator alike: read a frame, hand it to dispatch, flush the
// response. The idle deadline covers the wait for the next request and
// the exchange itself, so a stalled or vanished client frees the
// goroutine within it, never "until Close". The read and response
// writes consult faults.PointServeRead and faults.PointServeWrite keyed
// by the remote address.
func serveFrames(conn net.Conn, readIdle time.Duration, in *faults.Injector, dispatch func(kind byte, payload []byte, respond func(byte, []byte) error) error) {
	key := remoteKey(conn)
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	respond := func(kind byte, payload []byte) error {
		if err := in.Check(faults.PointServeWrite, key); err != nil {
			return err
		}
		return writeBlob(w, kind, payload)
	}
	for {
		if readIdle > 0 {
			if err := conn.SetDeadline(time.Now().Add(readIdle)); err != nil {
				return
			}
		}
		if err := in.Check(faults.PointServeRead, key); err != nil {
			return
		}
		var kind [1]byte
		if _, err := io.ReadFull(r, kind[:]); err != nil {
			return
		}
		payload, err := readBlobBody(r)
		if err == nil {
			err = dispatch(kind[0], payload, respond)
		}
		if err != nil {
			// An injected write fault models a broken pipe: drop the
			// connection so the client's transport retry kicks in. A
			// protocol error, by contrast, is answered in words.
			if !errors.Is(err, faults.ErrInjected) {
				_ = respond(kindError, []byte(err.Error()))
				w.Flush()
			}
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) handle(conn net.Conn) {
	serveFrames(conn, s.cfg.readIdle, s.cfg.faults, s.dispatch)
}

// dispatch answers one request. An error is answered with an error frame
// and closes the connection.
func (s *Server) dispatch(kind byte, payload []byte, resp func(byte, []byte) error) error {
	if s.dyn == nil && (kind == kindAdd || kind == kindRemove || kind == kindDump || kind == kindDrop) {
		return fmt.Errorf("%w: read-only static block rejects frame %q", ErrProtocol, kind)
	}
	switch kind {
	case kindMatchV2:
		return s.handleMatch(payload, resp)
	case kindAdd:
		return s.handleAdd(payload, resp)
	case kindRemove:
		return s.handleRemove(payload, resp)
	case kindDump:
		return s.handleDump(payload, resp)
	case kindDrop:
		return s.handleDrop(payload, resp)
	case kindInstall:
		return s.handleInstall(payload, resp)
	case kindMapReq:
		return s.handleMapReq(resp)
	default:
		return fmt.Errorf("%w: unknown frame kind %q", ErrProtocol, kind)
	}
}

// handleMatch answers a match: verify this block read-serves every
// requested partition under the installed map, then match only the
// requested partitions.
func (s *Server) handleMatch(payload []byte, resp func(byte, []byte) error) error {
	_, parts, events, err := decodeMatchV2(payload)
	if err != nil {
		return err
	}
	s.smu.RLock()
	m := s.pmap
	stale := false
	if m.Version != 0 {
		for _, p := range parts {
			if !m.Hosts(int(p), s.cfg.advertise) {
				stale = true
				break
			}
		}
	}
	s.smu.RUnlock()
	if stale {
		return resp(kindStale, encodeU64(m.Version))
	}

	var wanted [NumPartitions]bool
	for _, p := range parts {
		wanted[p] = true
	}
	set := core.Canonical(u32ToEvents(events))
	var ids []uint32
	if s.matcher != nil {
		// A Compact's subscriptions hang under their minimal event's root
		// entry, so the walk itself skips the unrequested partitions.
		for _, id := range s.matcher.MatchRootsAppend(nil, set, func(e core.Event) bool { return wanted[PartitionOfEvent(e)] }) {
			ids = append(ids, uint32(id))
		}
		return resp(kindResults, appendU32s(nil, ids))
	}
	matched := s.dyn.Match(set)
	ids = make([]uint32, 0, len(matched))
	s.smu.RLock()
	for _, id := range matched {
		if p, ok := s.part[id]; ok && wanted[p] {
			ids = append(ids, uint32(id))
		}
	}
	s.smu.RUnlock()
	return resp(kindResults, appendU32s(nil, ids))
}

// checkWriteVersion bounces writes carrying an older map version than
// this block's: a subscription mutation from a stale client could miss a
// joining destination mid-handoff, so it is rejected until the client
// refreshes. Writes carrying a newer version are accepted — the client's
// target list came from the newer (correct) map, and applying the write
// on a block whose install push is still in flight is exactly what keeps
// the no-lost-subscription invariant; reads stay gated by the hosting
// check, so an over-eager copy is never served from the wrong block.
func (s *Server) checkWriteVersion(ver uint64) (stale bool, cur uint64) {
	s.smu.RLock()
	defer s.smu.RUnlock()
	if s.pmap.Version != 0 && ver < s.pmap.Version {
		return true, s.pmap.Version
	}
	return false, 0
}

// handleAdd registers (or replaces, idempotently) one subscription.
func (s *Server) handleAdd(payload []byte, resp func(byte, []byte) error) error {
	ver, id, events, err := decodeSubOp(payload)
	if err != nil {
		return err
	}
	if stale, cur := s.checkWriteVersion(ver); stale {
		return resp(kindStale, encodeU64(cur))
	}
	set := core.Canonical(u32ToEvents(events))
	if len(set) == 0 {
		return core.ErrEmptyComplexEvent
	}
	cid := core.ComplexID(id)
	s.smu.Lock()
	if _, exists := s.part[cid]; exists {
		// Replace: transfer re-sends and client retries land here; the
		// newest definition wins.
		_ = s.dyn.Remove(cid)
	}
	err = s.dyn.Add(cid, set)
	if err == nil {
		s.part[cid] = PartitionOf(set)
	}
	s.smu.Unlock()
	if err != nil {
		return err
	}
	return resp(kindAck, nil)
}

// handleRemove unregisters one subscription; removing an id this block
// never saw is a no-op (double-writes and retries make that routine).
func (s *Server) handleRemove(payload []byte, resp func(byte, []byte) error) error {
	ver, id, _, err := decodeSubOp(payload)
	if err != nil {
		return err
	}
	if stale, cur := s.checkWriteVersion(ver); stale {
		return resp(kindStale, encodeU64(cur))
	}
	cid := core.ComplexID(id)
	s.smu.Lock()
	if _, exists := s.part[cid]; exists {
		_ = s.dyn.Remove(cid)
		delete(s.part, cid)
	}
	s.smu.Unlock()
	return resp(kindAck, nil)
}

// partSubs snapshots every subscription of partition p.
func (s *Server) partSubs(p int) []Sub {
	var subs []Sub
	s.dyn.Range(func(id core.ComplexID, set core.EventSet) bool {
		if PartitionOf(set) == p {
			subs = append(subs, Sub{ID: id, Events: set.Clone()})
		}
		return true
	})
	return subs
}

// handleDump streams partition p's subscriptions to the coordinator.
func (s *Server) handleDump(payload []byte, resp func(byte, []byte) error) error {
	p, err := decodePart(payload)
	if err != nil {
		return err
	}
	return resp(kindDumped, encodeSubs(s.partSubs(p)))
}

// handleDrop discards partition p after a handoff moved it elsewhere.
func (s *Server) handleDrop(payload []byte, resp func(byte, []byte) error) error {
	p, err := decodePart(payload)
	if err != nil {
		return err
	}
	for _, sub := range s.partSubs(p) {
		s.smu.Lock()
		_ = s.dyn.Remove(sub.ID)
		delete(s.part, sub.ID)
		s.smu.Unlock()
	}
	return resp(kindAck, nil)
}

// handleInstall adopts a new partition map. Regressions are ignored (a
// re-pushed older version acks without clobbering newer state, which
// makes coordinator recovery re-pushes idempotent).
func (s *Server) handleInstall(payload []byte, resp func(byte, []byte) error) error {
	m, err := DecodeMap(payload)
	if err != nil {
		return err
	}
	s.smu.Lock()
	if m.Version >= s.pmap.Version {
		s.pmap = m
	}
	s.smu.Unlock()
	return resp(kindAck, nil)
}

// handleMapReq serves the installed map to a client; a static block
// serves the map of what it holds.
func (s *Server) handleMapReq(resp func(byte, []byte) error) error {
	s.smu.RLock()
	m := s.pmap
	s.smu.RUnlock()
	if len(m.Assign) == 0 {
		return fmt.Errorf("%w: no partition map installed on this block", ErrProtocol)
	}
	return resp(kindMapResp, m.Encode())
}
