package pubsub_test

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"xymon/pubsub"
)

// TestPublicSurface exercises the whole re-exported API end to end:
// dynamic matcher, canonicalisation, freeze, snapshot round trip,
// partitioning and the TCP fan-out.
func TestPublicSurface(t *testing.T) {
	m := pubsub.NewMatcher()
	if err := m.Add(1, []pubsub.Event{1, 3}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := m.Add(2, []pubsub.Event{3}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := m.Add(1, []pubsub.Event{9}); err != pubsub.ErrDuplicateComplexID {
		t.Errorf("duplicate Add = %v", err)
	}
	if err := m.Add(3, nil); err != pubsub.ErrEmptyComplexEvent {
		t.Errorf("empty Add = %v", err)
	}
	s := pubsub.Canonical([]pubsub.Event{3, 1, 3})
	got := m.Match(s)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Match = %v", got)
	}

	// Freeze + serialise + decode.
	frozen := pubsub.Freeze(m)
	var buf bytes.Buffer
	if _, err := frozen.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	decoded, err := pubsub.ReadCompact(&buf)
	if err != nil {
		t.Fatalf("ReadCompact: %v", err)
	}
	if len(decoded.Match(s)) != 2 {
		t.Error("decoded snapshot lost subscriptions")
	}
	if _, err := pubsub.ReadCompact(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk snapshot accepted")
	}

	// Partitioned.
	part := pubsub.NewPartitioned(2, false)
	part.Add(1, []pubsub.Event{1, 3})
	part.Add(2, []pubsub.Event{3})
	if len(part.Match(s)) != 2 {
		t.Error("partitioned matcher disagrees")
	}

	// TCP fan-out.
	srv, err := pubsub.Serve("127.0.0.1:0", frozen)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer srv.Close()
	client, err := pubsub.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	remote, err := client.Match(s)
	if err != nil || len(remote) != 2 {
		t.Errorf("remote Match = %v, %v", remote, err)
	}
}

// TestStaticBlocksAgreeWithLocal splits a base over three TCP blocks
// with StaticBlock and requires every remote match set to equal the
// local matcher's.
func TestStaticBlocksAgreeWithLocal(t *testing.T) {
	const blocks, universe = 3, 90
	rng := rand.New(rand.NewSource(5))
	local := pubsub.NewMatcher()
	parts := make([]*pubsub.Matcher, blocks)
	for i := range parts {
		parts[i] = pubsub.NewMatcher()
	}
	for id := pubsub.ComplexID(0); id < 600; id++ {
		events := make([]pubsub.Event, 1+rng.Intn(3))
		for i := range events {
			events[i] = pubsub.Event(rng.Intn(universe))
		}
		if err := local.Add(id, events); err != nil {
			t.Fatal(err)
		}
		if err := parts[pubsub.StaticBlock(events, blocks)].Add(id, events); err != nil {
			t.Fatal(err)
		}
	}
	addrs := make([]string, blocks)
	for i, part := range parts {
		srv, err := pubsub.Serve("127.0.0.1:0", pubsub.Freeze(part))
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	client, err := pubsub.Dial(addrs...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	for doc := 0; doc < 100; doc++ {
		events := make([]pubsub.Event, 1+rng.Intn(20))
		for i := range events {
			events[i] = pubsub.Event(rng.Intn(universe))
		}
		s := pubsub.Canonical(events)
		remote, err := client.Match(s)
		if err != nil {
			t.Fatalf("Match: %v", err)
		}
		want := local.Match(s)
		sort.Slice(remote, func(i, j int) bool { return remote[i] < remote[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(remote) != len(want) {
			t.Fatalf("Match(%v) = %v, local %v", s, remote, want)
		}
		for i := range want {
			if remote[i] != want[i] {
				t.Fatalf("Match(%v) = %v, local %v", s, remote, want)
			}
		}
	}
}
