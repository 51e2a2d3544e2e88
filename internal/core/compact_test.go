package core

import (
	"math/rand"
	"sort"
	"testing"
)

func TestCompactMatchesPaperExample(t *testing.T) {
	m := figure4Matcher(t)
	c := Freeze(m)
	got := c.Match(EventSet{1, 3, 5})
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []ComplexID{3, 4, 10, 15}
	if !equalIDs(got, want) {
		t.Errorf("Compact.Match({a1,a3,a5}) = %v, want %v", got, want)
	}
	if c.Len() != m.Len() {
		t.Errorf("Len = %d, want %d", c.Len(), m.Len())
	}
}

// TestCompactAgreesWithMatcher freezes random structures and cross-checks
// every match result against the live matcher.
func TestCompactAgreesWithMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		universe := 40 + rng.Intn(150)
		m := NewMatcher()
		n := 1 + rng.Intn(400)
		for id := ComplexID(0); int(id) < n; id++ {
			arity := 1 + rng.Intn(5)
			events := make([]Event, arity)
			for i := range events {
				events[i] = Event(rng.Intn(universe))
			}
			if err := m.Add(id, events); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
		c := Freeze(m)
		for doc := 0; doc < 30; doc++ {
			s := randomSet(rng, 20, universe)
			want := sortedMatch(m, s)
			got := c.Match(s)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if !equalIDs(got, want) {
				t.Fatalf("trial %d: Compact.Match(%v) = %v, live = %v", trial, s, got, want)
			}
		}
	}
}

func TestCompactEmpty(t *testing.T) {
	c := Freeze(NewMatcher())
	if got := c.Match(EventSet{1, 2, 3}); len(got) != 0 {
		t.Errorf("empty Compact matched %v", got)
	}
	if c.Len() != 0 || c.MemoryEstimate() != 0 {
		t.Errorf("Len=%d Mem=%d", c.Len(), c.MemoryEstimate())
	}
}

func TestCompactIsSmallerThanLiveStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	m := NewMatcher()
	for id := ComplexID(0); id < 5000; id++ {
		events := []Event{
			Event(rng.Intn(2000)), Event(rng.Intn(2000)), Event(rng.Intn(2000)),
		}
		if err := m.Add(id, events); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	c := Freeze(m)
	if c.MemoryEstimate() >= m.MemoryEstimate() {
		t.Errorf("Compact %d B >= live %d B", c.MemoryEstimate(), m.MemoryEstimate())
	}
}

func TestCompactMatchAppend(t *testing.T) {
	m := figure4Matcher(t)
	c := Freeze(m)
	buf := make([]ComplexID, 0, 16)
	out := c.MatchAppend(buf, EventSet{1, 3, 5})
	if len(out) != 4 || cap(out) != cap(buf) {
		t.Errorf("MatchAppend = %v (cap %d)", out, cap(out))
	}
}

// TestCompactMatchRootsAppend checks the root-restricted walk against a
// full match filtered by each hit's minimal event.
func TestCompactMatchRootsAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const universe = 120
	m := NewMatcher()
	least := make(map[ComplexID]Event)
	for id := ComplexID(0); id < 600; id++ {
		events := make([]Event, 1+rng.Intn(4))
		for i := range events {
			events[i] = Event(rng.Intn(universe))
		}
		if err := m.Add(id, events); err != nil {
			t.Fatalf("Add: %v", err)
		}
		least[id] = Canonical(events)[0]
	}
	c := Freeze(m)
	keep := func(e Event) bool { return e%3 != 1 }
	for doc := 0; doc < 50; doc++ {
		s := randomSet(rng, 25, universe)
		var want []ComplexID
		for _, id := range c.Match(s) {
			if keep(least[id]) {
				want = append(want, id)
			}
		}
		got := c.MatchRootsAppend(nil, s, keep)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !equalIDs(got, want) {
			t.Fatalf("MatchRootsAppend(%v) = %v, want %v", s, got, want)
		}
	}
	if got := c.MatchRootsAppend(nil, EventSet{1, 2, 3}, func(Event) bool { return false }); len(got) != 0 {
		t.Errorf("reject-all walk matched %v", got)
	}

	// Heads lists exactly the distinct minimal events, ascending.
	var heads EventSet
	c.Heads(func(e Event) { heads = append(heads, e) })
	var want []Event
	for _, e := range least {
		want = append(want, e)
	}
	if wantSet := Canonical(want); len(heads) != len(wantSet) || !equalEvents(heads, wantSet) {
		t.Errorf("Heads = %v, want %v", heads, wantSet)
	}
}

func equalEvents(a, b EventSet) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}
