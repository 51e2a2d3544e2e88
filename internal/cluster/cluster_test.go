package cluster

import (
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xymon/internal/core"
)

// startCluster splits a random subscription base over nBlocks static
// blocks with StaticBlock and returns a connected client and the
// reference single matcher.
func startCluster(t *testing.T, nBlocks, nComplex, universe int, seed int64) (*RingClient, *core.Matcher) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reference := core.NewMatcher()
	blocks := make([]*core.Matcher, nBlocks)
	for i := range blocks {
		blocks[i] = core.NewMatcher()
	}
	for id := core.ComplexID(0); int(id) < nComplex; id++ {
		events := make([]core.Event, 1+rng.Intn(4))
		for i := range events {
			events[i] = core.Event(rng.Intn(universe))
		}
		if err := reference.Add(id, events); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := blocks[StaticBlock(events, nBlocks)].Add(id, events); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	addrs := make([]string, nBlocks)
	for i, b := range blocks {
		srv, err := Serve("127.0.0.1:0", core.Freeze(b))
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	client, err := Dial(addrs...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return client, reference
}

func sorted(ids []core.ComplexID) []core.ComplexID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestDistributedMatchAgreesWithLocal holds static clusters of 1, 3 and
// 4 blocks to the single local matcher; 3 does not divide the partition
// count, so blocks host unequal partition shares.
func TestDistributedMatchAgreesWithLocal(t *testing.T) {
	const universe = 100
	for _, nBlocks := range []int{1, 3, 4} {
		client, reference := startCluster(t, nBlocks, 500, universe, 51)
		rng := rand.New(rand.NewSource(52))
		for trial := 0; trial < 50; trial++ {
			events := make([]core.Event, rng.Intn(15))
			for i := range events {
				events[i] = core.Event(rng.Intn(universe))
			}
			s := core.Canonical(events)
			res, err := client.MatchResult(s)
			if err != nil || res.Degraded {
				t.Fatalf("%d blocks: MatchResult(%v) = %+v, %v", nBlocks, s, res, err)
			}
			if got, want := sorted(res.IDs), sorted(reference.Match(s)); !sameIDs(got, want) {
				t.Fatalf("%d blocks: Match(%v) = %v, want %v", nBlocks, s, got, want)
			}
		}
	}
}

// TestCompactBlockServesRequestedPartitionsOnly asks one static block
// for strict subsets of its partitions and requires exactly the matches
// of those partitions — none of the others.
func TestCompactBlockServesRequestedPartitionsOnly(t *testing.T) {
	const universe = 60
	rng := rand.New(rand.NewSource(56))
	m := core.NewMatcher()
	for id := core.ComplexID(0); id < 400; id++ {
		events := make([]core.Event, 1+rng.Intn(3))
		for i := range events {
			events[i] = core.Event(rng.Intn(universe))
		}
		if err := m.Add(id, events); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Serve("127.0.0.1:0", core.Freeze(m))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	all := make([]core.Event, universe)
	for i := range all {
		all[i] = core.Event(i)
	}
	doc := core.Canonical(all)
	needed := neededPartitions(doc)
	for trial := 0; trial < 10; trial++ {
		var parts []uint32
		var wanted [NumPartitions]bool
		for _, p := range needed {
			if rng.Intn(3) == 0 {
				parts = append(parts, p)
				wanted[p] = true
			}
		}
		if len(parts) == 0 || len(parts) == len(needed) {
			continue // not a strict, non-empty subset
		}
		var want []core.ComplexID
		for _, id := range m.Match(doc) {
			if wanted[PartitionOf(m.Definition(id))] {
				want = append(want, id)
			}
		}
		kind, body := rawExchange(t, srv.Addr(), kindMatchV2, encodeMatchV2(1, parts, eventsToU32(doc)))
		if kind != kindResults {
			t.Fatalf("partition-subset match answered %q: %s", kind, body)
		}
		ids, err := u32s(body)
		if err != nil {
			t.Fatal(err)
		}
		if got := sorted(idsOf(ids)); !sameIDs(got, sorted(want)) {
			t.Fatalf("partitions %v: got %v, want %v", parts, got, want)
		}
	}
}

// rawExchange sends one frame on a fresh connection and returns the
// reply frame as is, error frames included.
func rawExchange(t *testing.T, addr string, kind byte, payload []byte) (byte, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeBlob(conn, kind, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	var k [1]byte
	if _, err := io.ReadFull(conn, k[:]); err != nil {
		t.Fatalf("read reply kind: %v", err)
	}
	body, err := readBlobBody(conn)
	if err != nil {
		t.Fatalf("read reply body: %v", err)
	}
	return k[0], body
}

func TestConcurrentClients(t *testing.T) {
	const universe = 80
	client, reference := startCluster(t, 2, 300, universe, 53)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				events := make([]core.Event, 1+rng.Intn(10))
				for j := range events {
					events[j] = core.Event(rng.Intn(universe))
				}
				s := core.Canonical(events)
				got, err := client.Match(s)
				if err != nil {
					t.Errorf("Match: %v", err)
					return
				}
				if len(got) != len(reference.Match(s)) {
					t.Errorf("result size mismatch for %v", s)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestEmptyMatch(t *testing.T) {
	client, _ := startCluster(t, 2, 10, 50, 54)
	got, err := client.Match(nil)
	if err != nil {
		t.Fatalf("Match(nil): %v", err)
	}
	if len(got) != 0 {
		t.Errorf("Match(nil) = %v", got)
	}
}

func TestClientClosedErrors(t *testing.T) {
	client, _ := startCluster(t, 1, 10, 50, 55)
	client.Close()
	if _, err := client.Match(core.EventSet{1}); err == nil {
		t.Error("Match on closed client should fail")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to a dead port should fail")
	}
}

func TestServerCloseUnblocksAccept(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", core.Freeze(core.NewMatcher()))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestProtocolErrorHandling(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", core.Freeze(core.NewMatcher()))
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()

	// Garbage frame kind: the server answers with an error frame.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	conn.Write([]byte{'X', 0, 0, 0, 0})
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, buf); err != nil || buf[0] != 'E' {
		t.Errorf("expected error frame, got %q err %v", buf, err)
	}

	// Oversized length: rejected, error frame again.
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn2.Close()
	frame := []byte{kindMatchV2, 0xFF, 0xFF, 0xFF, 0x7F}
	conn2.Write(frame)
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn2, buf); err != nil || buf[0] != 'E' {
		t.Errorf("oversized frame: got %q err %v", buf, err)
	}
}

func TestClientAgainstMisbehavingServer(t *testing.T) {
	// A fake "server" that answers every request with an error frame.
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
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					msg := []byte("synthetic failure")
					c.Write([]byte{'E', byte(len(msg)), 0, 0, 0})
					c.Write(msg)
				}
			}(conn)
		}
	}()
	if _, err := Dial(ln.Addr().String()); err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("Dial error = %v, want remote failure surfaced", err)
	}
	client := NewRingClientWithMap(StaticMap([]string{ln.Addr().String()}))
	defer client.Close()
	_, err = client.Match(core.EventSet{1})
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Errorf("Match error = %v, want remote failure surfaced", err)
	}
}
