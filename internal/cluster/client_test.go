package cluster

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"xymon/internal/core"
)

// eventOn returns the smallest event whose one-event subscription
// StaticBlock places on block i of n.
func eventOn(i, n int) core.Event {
	for e := core.Event(1); ; e++ {
		if StaticBlock([]core.Event{e}, n) == i {
			return e
		}
	}
}

// evA and evB head the subscriptions of the two static blocks built by
// twoBlocks.
var evA, evB = eventOn(0, 2), eventOn(1, 2)

// twoBlocks builds a two-block static cluster with known partitions:
// block A holds complex 0 ← {evA}, block B holds complex 1 ← {evB}. It
// returns both servers so tests can kill and resurrect them
// individually; dial them in (A, B) order.
func twoBlocks(t *testing.T) (srvA, srvB *Server) {
	t.Helper()
	a, b := core.NewMatcher(), core.NewMatcher()
	if err := a.Add(0, []core.Event{evA}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, []core.Event{evB}); err != nil {
		t.Fatal(err)
	}
	srvA, err := Serve("127.0.0.1:0", core.Freeze(a))
	if err != nil {
		t.Fatalf("Serve A: %v", err)
	}
	t.Cleanup(func() { srvA.Close() })
	srvB, err = Serve("127.0.0.1:0", core.Freeze(b))
	if err != nil {
		t.Fatalf("Serve B: %v", err)
	}
	t.Cleanup(func() { srvB.Close() })
	return srvA, srvB
}

// restartBlock brings a block back up on the address it previously held.
func restartBlock(t *testing.T, addr string, id core.ComplexID, events []core.Event) *Server {
	t.Helper()
	m := core.NewMatcher()
	if err := m.Add(id, events); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(addr, core.Freeze(m))
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestDegradedPartialResults kills one of two blocks and checks the
// client keeps answering with the surviving block's matches, flagged
// Degraded, instead of failing the whole document.
func TestDegradedPartialResults(t *testing.T) {
	srvA, srvB := twoBlocks(t)
	client, err := DialWith([]ClientOption{
		WithTimeouts(time.Second, time.Second),
		WithRetries(1),
		WithDownCooldown(10*time.Millisecond, 50*time.Millisecond),
	}, srvA.Addr(), srvB.Addr())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer client.Close()

	set := core.Canonical([]core.Event{evA, evB})
	res, err := client.MatchResult(set)
	if err != nil || res.Degraded || len(res.IDs) != 2 {
		t.Fatalf("healthy MatchResult = %+v, %v", res, err)
	}

	addrB := srvB.Addr()
	srvB.Close()
	res, err = client.MatchResult(set)
	if err != nil {
		t.Fatalf("degraded MatchResult errored: %v", err)
	}
	if !res.Degraded {
		t.Fatal("one block down: result not flagged Degraded")
	}
	if len(res.Down) != 1 || res.Down[0] != addrB {
		t.Errorf("Down = %v, want [%s]", res.Down, addrB)
	}
	if len(res.IDs) != 1 || res.IDs[0] != 0 {
		t.Errorf("partial IDs = %v, want the surviving block's [0]", res.IDs)
	}
	if st := client.Stats(); st.Degraded != 1 || st.BlockFailures == 0 {
		t.Errorf("stats = %+v, want one degraded match and block-failure counts", st)
	}

	// Resurrect block B; Probe reconnects it immediately (no cooldown
	// wait) and full results come back.
	restartBlock(t, addrB, 1, []core.Event{evB})
	deadline := time.Now().Add(5 * time.Second)
	for client.Probe() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("Probe never brought block B back")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err = client.MatchResult(set)
	if err != nil || res.Degraded || len(res.IDs) != 2 {
		t.Fatalf("post-recovery MatchResult = %+v, %v", res, err)
	}
	if st := client.Stats(); st.Reconnects == 0 {
		t.Errorf("stats = %+v, want a reconnect recorded", st)
	}
}

// TestStaticMapDeadBlockIsNotAFailover pins the failover count: with
// one replica per partition a dead block's partitions have nowhere to
// go, so the match is Degraded and no failover is counted.
func TestStaticMapDeadBlockIsNotAFailover(t *testing.T) {
	srvA, srvB := twoBlocks(t)
	client, err := DialWith([]ClientOption{
		WithTimeouts(time.Second, time.Second),
		WithRetries(0),
		WithDownCooldown(time.Minute, time.Minute),
	}, srvA.Addr(), srvB.Addr())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer client.Close()
	srvB.Close()
	res, err := client.MatchResult(core.Canonical([]core.Event{evA, evB}))
	if err != nil || !res.Degraded {
		t.Fatalf("MatchResult with B dead = %+v, %v", res, err)
	}
	if st := client.Stats(); st.Degraded != 1 || st.Failovers != 0 {
		t.Errorf("stats = %+v, want Degraded=1 Failovers=0", st)
	}
}

// TestDialRejectsMisorderedBlocks pins the static placement check: a
// block list out of block order would read each partition from a block
// that does not hold it and silently match nothing, so Dial refuses it.
func TestDialRejectsMisorderedBlocks(t *testing.T) {
	srvA, srvB := twoBlocks(t)
	_, err := Dial(srvB.Addr(), srvA.Addr())
	if err == nil || !strings.Contains(err.Error(), "block order") {
		t.Fatalf("Dial(B, A) = %v, want a block-order error", err)
	}
	client, err := Dial(srvA.Addr(), srvB.Addr())
	if err != nil {
		t.Fatalf("Dial(A, B): %v", err)
	}
	client.Close()
	// A dynamic block holds no frozen base to check; Dial refuses it too.
	dyn, err := ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer dyn.Close()
	if _, err := Dial(dyn.Addr()); err == nil {
		t.Fatal("Dial accepted a dynamic block as a static one")
	}
}

// TestAllBlocksDownErrors pins the no-degradation boundary: when every
// block is unreachable there is nothing to degrade to, so Match errors
// (it must not silently return zero matches).
func TestAllBlocksDownErrors(t *testing.T) {
	srvA, srvB := twoBlocks(t)
	client, err := DialWith([]ClientOption{
		WithRetries(0),
		WithDownCooldown(time.Minute, time.Minute),
	}, srvA.Addr(), srvB.Addr())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer client.Close()
	srvA.Close()
	srvB.Close()
	if _, err := client.Match(core.Canonical([]core.Event{evA, evB})); err == nil {
		t.Fatal("Match with every block down returned nil error")
	}
}

// TestDownCooldownSkipsAndRecovers checks the cooldown bookkeeping on a
// virtual clock: a failed block is skipped instantly while cooling down,
// and the first match after the window re-dials it.
func TestDownCooldownSkipsAndRecovers(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	srvA, srvB := twoBlocks(t)
	client, err := DialWith([]ClientOption{
		WithRetries(0),
		WithDownCooldown(time.Minute, time.Hour),
		WithClientClock(clock),
	}, srvA.Addr(), srvB.Addr())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer client.Close()

	addrB := srvB.Addr()
	srvB.Close()
	set := core.Canonical([]core.Event{evA, evB})
	if res, err := client.MatchResult(set); err != nil || !res.Degraded {
		t.Fatalf("first MatchResult = %+v, %v", res, err)
	}
	var down *BlockHealth
	for _, h := range client.Health() {
		if h.Addr == addrB {
			h := h
			down = &h
		}
	}
	if down == nil || down.Up || down.Fails == 0 || !down.DownUntil.After(now) {
		t.Fatalf("block B health = %+v, want down with a cooldown window", down)
	}

	// Inside the cooldown the block is skipped without dialing: even with
	// the server back up, the result stays degraded.
	restartBlock(t, addrB, 1, []core.Event{evB})
	if res, err := client.MatchResult(set); err != nil || !res.Degraded {
		t.Fatalf("in-cooldown MatchResult = %+v, %v", res, err)
	}

	// Past the window the next match doubles as the health probe.
	now = now.Add(2 * time.Minute)
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := client.MatchResult(set)
		if err == nil && !res.Degraded && len(res.IDs) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("block B never probed back in: %+v, %v", res, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, h := range client.Health() {
		if h.Addr == addrB && (!h.Up || h.Fails != 0) {
			t.Errorf("recovered block health = %+v", h)
		}
	}
}

// TestMatchNeverHangsOnSilentPeer points the client at a peer that
// accepts connections and then says nothing: the I/O deadline must turn
// the hang into a bounded failure.
func TestMatchNeverHangsOnSilentPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, never respond
		}
	}()
	client := NewRingClientWithMap(StaticMap([]string{ln.Addr().String()}),
		WithTimeouts(time.Second, 200*time.Millisecond), WithRetries(0))
	defer client.Close()
	start := time.Now()
	if _, err := client.Match(core.EventSet{1}); err == nil {
		t.Fatal("Match against a silent peer returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("Match took %v, want deadline-bounded (~200ms)", elapsed)
	}
}

// TestRemoteErrorNotRetried pins that an error frame from a live block is
// surfaced directly: the transport worked, so retrying or marking the
// block down would be wrong.
func TestRemoteErrorNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 256)
				if _, err := c.Read(buf); err != nil {
					return
				}
				msg := []byte("bad request")
				c.Write([]byte{'E', byte(len(msg)), 0, 0, 0})
				c.Write(msg)
			}(conn)
		}
	}()
	client := NewRingClientWithMap(StaticMap([]string{ln.Addr().String()}), WithRetries(3))
	defer client.Close()
	_, err = client.Match(core.EventSet{1})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Msg != "bad request" {
		t.Fatalf("Match = %v, want RemoteError(bad request)", err)
	}
	if st := client.Stats(); st.Retries != 0 {
		t.Errorf("remote error consumed %d retries, want 0", st.Retries)
	}
}

// TestServerSurvivesAbruptDisconnect tears a client away mid-frame and
// checks the server keeps serving fresh connections.
func TestServerSurvivesAbruptDisconnect(t *testing.T) {
	m := core.NewMatcher()
	if err := m.Add(7, []core.Event{3}); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", core.Freeze(m))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	// Announce a 16-byte frame, send 2 bytes of it, vanish.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	raw.Write([]byte{kindMatchV2, 16, 0, 0, 0, 0xAA, 0xBB})
	raw.Close()

	// And another that disconnects before even finishing the header.
	raw2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	raw2.Write([]byte{kindMatchV2, 1})
	raw2.Close()

	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial after abrupt disconnects: %v", err)
	}
	defer client.Close()
	ids, err := client.Match(core.EventSet{3})
	if err != nil || len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("Match after abrupt disconnects = %v, %v", ids, err)
	}
}
