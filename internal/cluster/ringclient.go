package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"sync"

	"xymon/internal/core"
)

// ErrNoMap reports a ring client without an installed partition map.
var ErrNoMap = errors.New("cluster: no partition map")

// maxMapRefreshes bounds how many stale-map → refetch rounds one request
// rides before giving up: a coordinator installing maps faster than a
// client can refetch them is a bug, not a condition to chase forever.
const maxMapRefreshes = 3

// RingClient is the cluster client. It routes every request by the
// current partition map — a StaticMap for a static deployment (Dial), or
// the coordinator's latest map (DialRing): matches fan out to the first
// live replica of each needed partition and fail over to the next
// replica before ever reporting degradation; Add/Remove are written to
// every replica plus any joining destination (the client half of the
// double-write invariant). Stale-map rejections from blocks trigger a
// refetch from the coordinator, so clients converge on new maps without
// a push channel.
type RingClient struct {
	cfg   clientConfig
	coord string // coordinator address ("" = static map, no refresh)

	mu    sync.Mutex
	m     Map
	conns map[string]*blockConn

	st netStats
}

// DialRing fetches the current partition map from the coordinator and
// returns a client routing by it.
func DialRing(coordAddr string, opts ...ClientOption) (*RingClient, error) {
	c := &RingClient{
		cfg:   newClientConfig(opts),
		coord: coordAddr,
		conns: make(map[string]*blockConn),
	}
	if err := c.RefreshMap(); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// NewRingClientWithMap returns a client routing by a fixed map with no
// coordinator: stale-map rejections surface as errors instead of
// triggering a refetch. Deployment glue and tests use this.
func NewRingClientWithMap(m Map, opts ...ClientOption) *RingClient {
	return &RingClient{
		cfg:   newClientConfig(opts),
		conns: make(map[string]*blockConn),
		m:     m.Clone(),
	}
}

// Close closes every block connection.
func (c *RingClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, bc := range c.conns {
		bc.mu.Lock()
		if bc.conn != nil {
			if err := bc.conn.Close(); err != nil && first == nil {
				first = err
			}
			bc.conn = nil
		}
		bc.mu.Unlock()
	}
	c.conns = nil
	return first
}

// Map snapshots the client's current partition map.
func (c *RingClient) Map() Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Clone()
}

// Stats snapshots the robustness counters.
func (c *RingClient) Stats() ClientStats { return c.st.snapshot() }

// RefreshMap fetches the partition map from the coordinator and installs
// it if newer than the current one.
func (c *RingClient) RefreshMap() error {
	if c.coord == "" {
		return fmt.Errorf("%w: no coordinator to refresh from", ErrNoMap)
	}
	kind, body, err := c.request(c.coord, kindMapReq, nil)
	if err != nil {
		return err
	}
	if kind != kindMapResp {
		return fmt.Errorf("%w: coordinator answered %q to a map fetch", ErrProtocol, kind)
	}
	m, err := DecodeMap(body)
	if err != nil {
		return err
	}
	c.adopt(m)
	return nil
}

func (c *RingClient) mapVersion() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Version
}

// adopt installs m if it is at least as new as the current map.
func (c *RingClient) adopt(m Map) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.Version >= c.m.Version {
		c.m = m
	}
}

// conn returns (creating on first use) the shared connection state for
// one block address. Dialing is lazy — blockConn.call dials on demand.
func (c *RingClient) conn(addr string) (*blockConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns == nil {
		return nil, errors.New("cluster: ring client is closed")
	}
	bc, ok := c.conns[addr]
	if !ok {
		bc = &blockConn{addr: addr}
		c.conns[addr] = bc
	}
	return bc, nil
}

// request runs one request/response round trip against addr through
// the shared robustness envelope (reconnect, deadlines, bounded retries,
// down-cooldown).
func (c *RingClient) request(addr string, kind byte, payload []byte) (byte, []byte, error) {
	bc, err := c.conn(addr)
	if err != nil {
		return 0, nil, err
	}
	var rkind byte
	var rbody []byte
	err = bc.call(&c.cfg, &c.st,
		func(w *bufio.Writer) error { return writeBlob(w, kind, payload) },
		func(r *bufio.Reader) error {
			var err error
			rkind, rbody, err = readBlob(r)
			return err
		})
	return rkind, rbody, err
}

// neededPartitions returns the sorted distinct partitions a match for s
// must consult: the partitions of the document's own events. Any
// subscription triggered by s has its minimal event in s, so its
// partition is among these.
func neededPartitions(s core.EventSet) []uint32 {
	var seen [NumPartitions]bool
	for _, e := range s {
		seen[PartitionOfEvent(e)] = true
	}
	var parts []uint32
	for p, ok := range seen {
		if ok {
			parts = append(parts, uint32(p))
		}
	}
	return parts
}

// Match is MatchResult without the degradation report.
func (c *RingClient) Match(s core.EventSet) ([]core.ComplexID, error) {
	res, err := c.MatchResult(s)
	return res.IDs, err
}

// MatchResult matches the canonical event set against the cluster. Each
// needed partition is asked of its first live replica; a replica failure
// re-routes that replica's partitions to the next choice (counted in
// Stats().Failovers) — Degraded is set only when a partition runs out of
// replicas entirely. When no partition is answered at all, the failure
// is an error: there is nothing to degrade to. A stale-map rejection
// refetches the map from the coordinator and re-plans, bounded by
// maxMapRefreshes.
func (c *RingClient) MatchResult(s core.EventSet) (Result, error) {
	parts := neededPartitions(s)
	if len(parts) == 0 {
		return Result{}, nil
	}
	events := eventsToU32(s)
	var lastErr error
	for refresh := 0; ; refresh++ {
		c.mu.Lock()
		m := c.m
		c.mu.Unlock()
		if m.Version == 0 || len(m.Assign) != NumPartitions {
			return Result{}, ErrNoMap
		}
		res, stale, err := c.matchOnce(m, parts, events)
		if err != nil {
			return Result{}, err
		}
		if !stale {
			if res.Degraded {
				c.st.degraded.Add(1)
			}
			return res, nil
		}
		if refresh >= maxMapRefreshes || c.coord == "" {
			return Result{}, fmt.Errorf("%w: blocks reject map version %d as stale", ErrProtocol, m.Version)
		}
		if err := c.RefreshMap(); err != nil {
			lastErr = err
			// The coordinator may itself be briefly unreachable during a
			// transition; one more stale round against the old map at
			// least surfaces the right error.
			if refresh+1 >= maxMapRefreshes {
				return Result{}, lastErr
			}
		}
		c.st.mapRefreshes.Add(1)
	}
}

// matchOnce runs one fan-out round under a fixed map: plan partitions
// onto their first non-failed replica, query the planned blocks
// concurrently, re-plan failed blocks' partitions onto the next replica,
// and repeat until every partition is answered or out of candidates.
// Partition sets sent to distinct blocks are disjoint, so the merged ids
// carry no duplicates. stale=true means some block holds a newer map.
func (c *RingClient) matchOnce(m Map, parts []uint32, events []uint32) (Result, bool, error) {
	var pending [NumPartitions]bool
	for _, p := range parts {
		pending[p] = true
	}
	left := len(parts)
	failed := make(map[string]bool)
	var res Result
	var firstErr error
	answered := false
	for left > 0 {
		// Plan: each pending partition goes to its first replica not yet
		// failed this match. Walking partitions in order keeps each
		// block's list sorted.
		plan := make(map[string][]uint32)
		for p, want := range pending {
			if !want {
				continue
			}
			for _, addr := range m.Assign[p] {
				if !failed[addr] {
					plan[addr] = append(plan[addr], uint32(p))
					break
				}
			}
		}
		if len(plan) == 0 {
			break // every remaining partition is out of replicas
		}
		type reply struct {
			addr  string
			parts []uint32
			ids   []uint32
			stale bool
			err   error
		}
		replies := make([]reply, 0, len(plan))
		var mu sync.Mutex
		var wg sync.WaitGroup
		ask := func(addr string, ps []uint32) {
			rep := reply{addr: addr, parts: ps}
			kind, body, err := c.request(addr, kindMatchV2, encodeMatchV2(m.Version, ps, events))
			switch {
			case err != nil:
				rep.err = err
			case kind == kindStale:
				rep.stale = true
			case kind == kindResults:
				rep.ids, rep.err = u32s(body)
			default:
				rep.err = fmt.Errorf("%w: block answered %q to a match", ErrProtocol, kind)
			}
			mu.Lock()
			replies = append(replies, rep)
			mu.Unlock()
		}
		// The calling goroutine asks the last block itself.
		n := 0
		for addr, ps := range plan {
			if n++; n == len(plan) {
				ask(addr, ps)
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ask(addr, ps)
			}()
		}
		wg.Wait()
		for _, rep := range replies {
			switch {
			case rep.stale:
				return Result{}, true, nil
			case rep.err != nil:
				var remote *RemoteError
				if errors.As(rep.err, &remote) {
					// The block understood and rejected the request;
					// another replica will reject it identically.
					return Result{}, false, rep.err
				}
				if firstErr == nil {
					firstErr = rep.err
				}
				failed[rep.addr] = true
				if !containsAddr(res.Down, rep.addr) {
					res.Down = append(res.Down, rep.addr)
				}
			default:
				answered = true
				res.IDs = append(res.IDs, idsOf(rep.ids)...)
				for _, p := range rep.parts {
					pending[p] = false
				}
				left -= len(rep.parts)
			}
		}
		// A failed block counts as a failover only if the next round
		// re-plans some of its partitions onto another replica.
		for _, rep := range replies {
			if rep.err != nil && hasLiveReplica(m, rep.parts, failed) {
				c.st.failovers.Add(1)
			}
		}
	}
	if left > 0 {
		if !answered {
			// Nothing answered at all: an error, not a degraded result —
			// there is nothing to degrade to.
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: no replica hosts the needed partitions", ErrNoMap)
			}
			return Result{}, false, firstErr
		}
		res.Degraded = true
	}
	return res, false, nil
}

// hasLiveReplica reports whether any of parts has a replica not yet
// failed in this match.
func hasLiveReplica(m Map, parts []uint32, failed map[string]bool) bool {
	for _, p := range parts {
		for _, addr := range m.Assign[p] {
			if !failed[addr] {
				return true
			}
		}
	}
	return false
}

func idsOf(raw []uint32) []core.ComplexID {
	out := make([]core.ComplexID, len(raw))
	for i, id := range raw {
		out[i] = core.ComplexID(id)
	}
	return out
}

// Add registers (or replaces) subscription id on every block that must
// observe it: the assigned replicas of its partition plus any joining
// destination mid-handoff. Add returns nil only when every target acked;
// on error the write may be partial and the caller must retry (the
// operation is idempotent) or treat the add as failed.
func (c *RingClient) Add(id core.ComplexID, events []core.Event) error {
	set := core.Canonical(events)
	if len(set) == 0 {
		return core.ErrEmptyComplexEvent
	}
	p := PartitionOf(set)
	raw := eventsToU32(set)
	return c.writeAll(p, func(ver uint64) (byte, []byte) {
		return kindAdd, encodeSubOp(ver, uint32(id), raw)
	})
}

// Remove drops subscription id from every block that could host it.
// Removing an unknown id is a no-op, as with core.Matcher.Remove.
func (c *RingClient) Remove(id core.ComplexID, events []core.Event) error {
	set := core.Canonical(events)
	if len(set) == 0 {
		return core.ErrEmptyComplexEvent
	}
	p := PartitionOf(set)
	return c.writeAll(p, func(ver uint64) (byte, []byte) {
		return kindRemove, encodeSubOp(ver, uint32(id), nil)
	})
}

// writeAll sends one write to every write target of partition p and
// requires an ack from each. Stale-map rejections refetch and retry the
// whole write — re-sending to a block that already applied it is safe
// because '+' replaces and '-' is a no-op on absence.
func (c *RingClient) writeAll(p int, frame func(ver uint64) (byte, []byte)) error {
	for refresh := 0; ; refresh++ {
		c.mu.Lock()
		m := c.m
		c.mu.Unlock()
		if m.Version == 0 || len(m.Assign) != NumPartitions {
			return ErrNoMap
		}
		targets := m.WriteTargets(p)
		if len(targets) == 0 {
			return fmt.Errorf("%w: partition %d has no write targets", ErrNoMap, p)
		}
		kind, payload := frame(m.Version)
		retry := false
		for _, addr := range targets {
			rkind, _, err := c.request(addr, kind, payload)
			if err != nil {
				// The target may simply no longer be a member: an
				// unreachable write target under an old map looks exactly
				// like this after an eviction. If the coordinator has a
				// newer map, re-plan against it before giving up.
				var remote *RemoteError
				if !errors.As(err, &remote) && refresh < maxMapRefreshes && c.coord != "" {
					if rerr := c.RefreshMap(); rerr == nil && c.mapVersion() > m.Version {
						c.st.mapRefreshes.Add(1)
						retry = true
						break
					}
				}
				return fmt.Errorf("cluster: write to %s: %w", addr, err)
			}
			if rkind == kindStale {
				if refresh >= maxMapRefreshes || c.coord == "" {
					return fmt.Errorf("%w: blocks reject map version %d as stale", ErrProtocol, m.Version)
				}
				if err := c.RefreshMap(); err != nil {
					return err
				}
				c.st.mapRefreshes.Add(1)
				retry = true
				break
			}
			if rkind != kindAck {
				return fmt.Errorf("%w: block %s answered %q to a write", ErrProtocol, addr, rkind)
			}
		}
		if !retry {
			return nil
		}
	}
}

// Probe attempts to reconnect every down block immediately, ignoring
// cooldown windows, and returns how many of the map's blocks are up.
func (c *RingClient) Probe() int {
	return probeConns(c.blockConns(), &c.cfg, &c.st)
}

// Health snapshots the liveness of every block in the current map.
func (c *RingClient) Health() []BlockHealth {
	conns := c.blockConns()
	out := make([]BlockHealth, 0, len(conns))
	for _, bc := range conns {
		bc.mu.Lock()
		out = append(out, BlockHealth{
			Addr: bc.addr, Up: bc.conn != nil,
			Fails: bc.downFails, DownUntil: bc.downUntil,
		})
		bc.mu.Unlock()
	}
	return out
}

// blockConns returns the conn state of every block in the current map,
// creating entries for blocks not yet contacted.
func (c *RingClient) blockConns() []*blockConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conns == nil {
		return nil
	}
	out := make([]*blockConn, 0, len(c.m.Blocks))
	for _, addr := range c.m.Blocks {
		bc, ok := c.conns[addr]
		if !ok {
			bc = &blockConn{addr: addr}
			c.conns[addr] = bc
		}
		out = append(out, bc)
	}
	return out
}
