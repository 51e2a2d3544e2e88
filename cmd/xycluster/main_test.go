package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xymon/internal/cluster"
	"xymon/internal/core"
	"xymon/internal/webgen"
)

func TestParseBlocks(t *testing.T) {
	got := parseBlocks(" a:1, ,b:2 ,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Errorf("parseBlocks = %v", got)
	}
	if parseBlocks("") != nil {
		t.Error("empty input should yield nil")
	}
}

func TestFreezeProducesLoadableSnapshots(t *testing.T) {
	dir := t.TempDir()
	if err := runFreeze([]string{"-c", "2000", "-a", "500", "-m", "3", "-blocks", "3", "-out", dir, "-seed", "9"}); err != nil {
		t.Fatalf("runFreeze: %v", err)
	}
	total := 0
	var blocks []*core.Compact
	for i := 0; i < 3; i++ {
		f, err := os.Open(filepath.Join(dir, "block"+string(rune('0'+i))+".xyc"))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		c, err := core.ReadCompact(f)
		f.Close()
		if err != nil {
			t.Fatalf("ReadCompact: %v", err)
		}
		total += c.Len()
		blocks = append(blocks, c)
	}
	if total != 2000 {
		t.Errorf("total complex events across blocks = %d, want 2000", total)
	}
	// The snapshots are directly servable, and the served cluster matches
	// exactly what one local matcher over the same base matches.
	addrs := make([]string, len(blocks))
	for i, b := range blocks {
		srv, err := cluster.Serve("127.0.0.1:0", b)
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	client, err := cluster.Dial(addrs...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer client.Close()
	w := webgen.GenEventWorkload(9, 500, 2000, 3, 1, 1)
	local := core.NewMatcher()
	for id, events := range w.Complex {
		if err := local.Add(core.ComplexID(id), events); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for doc := 0; doc < 100; doc++ {
		events := make([]core.Event, 40)
		for i := range events {
			events[i] = core.Event(rng.Intn(500))
		}
		s := core.Canonical(events)
		got, err := client.Match(s)
		if err != nil {
			t.Fatalf("Match: %v", err)
		}
		want := local.Match(s)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Match(%v) = %v, local %v", s, got, want)
		}
	}
	if err := runMatch([]string{"-blocks", strings.Join(addrs, ","), "1,2,3"}); err != nil {
		t.Errorf("runMatch -blocks: %v", err)
	}
}

// TestMatchAgainstCoordinator drives match and bench through -coord.
func TestMatchAgainstCoordinator(t *testing.T) {
	c, err := cluster.NewCoord(t.TempDir(), 1)
	if err != nil {
		t.Fatalf("NewCoord: %v", err)
	}
	defer c.Close()
	if err := c.ServeCoord("127.0.0.1:0"); err != nil {
		t.Fatalf("ServeCoord: %v", err)
	}
	srv, err := cluster.ServeDynamic("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("ServeDynamic: %v", err)
	}
	defer srv.Close()
	if err := c.Join(srv.Addr()); err != nil {
		t.Fatalf("Join: %v", err)
	}
	if err := runMatch([]string{"-coord", c.Addr(), "1,2,3"}); err != nil {
		t.Errorf("runMatch -coord: %v", err)
	}
	if err := runBench([]string{"-coord", c.Addr(), "-n", "10", "-a", "50"}); err != nil {
		t.Errorf("runBench -coord: %v", err)
	}
}

func TestMatchRejectsBadArgs(t *testing.T) {
	if err := runMatch([]string{"-blocks", "", "1"}); err == nil {
		t.Error("match without blocks should fail")
	}
	if err := runMatch([]string{"-blocks", "a:1", "-coord", "b:1", "1"}); err == nil {
		t.Error("match with both -blocks and -coord should fail")
	}
	if err := runBench([]string{"-blocks", ""}); err == nil {
		t.Error("bench without blocks should fail")
	}
	if err := runServe([]string{"-addr", "127.0.0.1:0"}); err == nil {
		t.Error("serve without file should fail")
	}
}
