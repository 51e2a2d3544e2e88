package warehouse

import (
	"fmt"
	"sync"
	"testing"

	"xymon/internal/xmldom"
)

// TestCommitXMLBytesTiering walks one page through the full cascade and
// checks each tier resolves where it should, with the counters to match.
func TestCommitXMLBytesTiering(t *testing.T) {
	s, _ := newTestStore()
	url := "http://shop.example/cat.xml"
	v1 := []byte(`<catalog><product id="p0"><name>radio</name></product><product id="p1"><name>tv</name></product></catalog>`)
	v1ws := []byte("<catalog>\n  <product id=\"p0\">\n    <name>radio</name>\n  </product>\n  <product id='p1'><name>tv</name></product>\n</catalog>")
	v2 := []byte(`<catalog><product id="p0"><name>radio</name></product><product id="p1"><name>sonar</name></product></catalog>`)

	r, err := s.CommitXMLBytes(url, "", "shopping", v1)
	if err != nil || r.Status != StatusNew {
		t.Fatalf("first commit: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{Parsed: 1}) {
		t.Fatalf("after new: stats %+v", got)
	}

	// Tier 1: byte-identical.
	r, err = s.CommitXMLBytes(url, "", "shopping", v1)
	if err != nil || r.Status != StatusUnchanged {
		t.Fatalf("identical refetch: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{SkippedRawSig: 1, Parsed: 1}) {
		t.Fatalf("after tier-1: stats %+v", got)
	}

	// Tier 2: byte-different, structurally identical — no parse.
	r, err = s.CommitXMLBytes(url, "", "shopping", v1ws)
	if err != nil || r.Status != StatusUnchanged {
		t.Fatalf("perturbed refetch: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{SkippedRawSig: 1, SkippedStructHash: 1, Parsed: 1}) {
		t.Fatalf("after tier-2: stats %+v", got)
	}
	if r.Meta.Version != 1 {
		t.Fatalf("unchanged refetch bumped version to %d", r.Meta.Version)
	}

	// A tier-2 hit refreshes the raw signature: the same perturbed bytes
	// now resolve at tier 1.
	r, err = s.CommitXMLBytes(url, "", "shopping", v1ws)
	if err != nil || r.Status != StatusUnchanged {
		t.Fatalf("perturbed re-refetch: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{SkippedRawSig: 2, SkippedStructHash: 1, Parsed: 1}) {
		t.Fatalf("after tier-1 refresh: stats %+v", got)
	}

	// A real change falls through to parse + diff.
	r, err = s.CommitXMLBytes(url, "", "shopping", v2)
	if err != nil || r.Status != StatusUpdated {
		t.Fatalf("real change: %v %v", r, err)
	}
	if got := s.Stats(); got != (Stats{SkippedRawSig: 2, SkippedStructHash: 1, Parsed: 2, Diffed: 1}) {
		t.Fatalf("after update: stats %+v", got)
	}
	if r.Meta.Version != 2 {
		t.Fatalf("update version = %d", r.Meta.Version)
	}
	// The masked diff narrowed to the one changed product.
	if r.Delta == nil || len(r.Delta.Ops) == 0 {
		t.Fatal("update produced no delta")
	}
}

// TestCommitXMLBytesMaskedUpdate: a byte-different refetch that perturbs
// whitespace AND edits one middle child must come out as a normal update
// with a delta that reconstructs the new version — the masked-diff path.
func TestCommitXMLBytesMaskedUpdate(t *testing.T) {
	s, _ := newTestStore()
	url := "http://shop.example/wide.xml"
	mk := func(mid string, ws bool) []byte {
		sep := ""
		if ws {
			sep = "\n  "
		}
		out := "<catalog>" + sep
		for i := 0; i < 9; i++ {
			name := fmt.Sprintf("item%d", i)
			if i == 4 {
				name = mid
			}
			out += fmt.Sprintf("<product id=\"p%d\"><name>%s</name></product>%s", i, name, sep)
		}
		return []byte(out + "</catalog>")
	}
	if _, err := s.CommitXMLBytes(url, "", "", mk("item4", false)); err != nil {
		t.Fatal(err)
	}
	r, err := s.CommitXMLBytes(url, "", "", mk("edited", true))
	if err != nil || r.Status != StatusUpdated {
		t.Fatalf("masked update: %v %v", r, err)
	}
	if r.Doc.XML() != string(mustCanon(t, mk("edited", false))) {
		t.Fatalf("stored version diverged: %s", r.Doc.XML())
	}
	if got := s.Stats(); got.Diffed != 1 || got.SkippedStructHash != 0 {
		t.Fatalf("stats %+v", got)
	}
}

func mustCanon(t *testing.T, data []byte) []byte {
	t.Helper()
	d, err := xmldom.ParseBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(d.XML())
}

// TestAlwaysDiffDisablesTiers: the benchmark baseline pays a full parse
// on every refetch, even byte-identical ones.
func TestAlwaysDiffDisablesTiers(t *testing.T) {
	c := &fakeClock{}
	s := NewStore(WithClock(c.now), WithAlwaysDiff())
	url := "http://shop.example/base.xml"
	v1 := []byte(`<c><p>x</p></c>`)
	v1ws := []byte("<c>\n<p>x</p>\n</c>")
	for i, data := range [][]byte{v1, v1, v1ws} {
		r, err := s.CommitXMLBytes(url, "", "", data)
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		want := StatusUnchanged
		if i == 0 {
			want = StatusNew
		}
		if r.Status != want {
			t.Fatalf("commit %d: status %v, want %v", i, r.Status, want)
		}
	}
	got := s.Stats()
	if got.SkippedRawSig != 0 || got.SkippedStructHash != 0 {
		t.Fatalf("baseline store skipped: %+v", got)
	}
	if got.Parsed != 3 {
		t.Fatalf("baseline store parsed %d times, want 3", got.Parsed)
	}
}

// TestConcurrentStructHashNoStalePairing hammers one URL with
// semantically-identical-to-v1 refetches while a writer flips the stored
// version between v1 and v2. Run under -race. The invariant under test is
// the commit-lock discipline: whenever a refetch reports Unchanged, the
// document it returns is the version whose hash matched (v1) — never a
// superseding v2 that landed in between.
func TestConcurrentStructHashNoStalePairing(t *testing.T) {
	s, _ := newTestStore()
	url := "http://conc.example/tier.xml"
	v1 := []byte(`<c><p id="a"><n>one</n></p><p id="b"><n>two</n></p></c>`)
	v1ws := []byte("<c>\n  <p id=\"a\"><n>one</n></p>\n  <p id='b'><n>two</n></p>\n</c>")
	v2 := []byte(`<c><p id="a"><n>one</n></p><p id="b"><n>CHANGED</n></p></c>`)
	canon1 := string(mustCanon(t, v1))
	if string(mustCanon(t, v2)) == canon1 || string(mustCanon(t, v1ws)) != canon1 {
		t.Fatal("test misconfigured: fixtures must share canonical form")
	}
	if _, err := s.CommitXMLBytes(url, "", "", v1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 300; i++ {
			data := v2
			if i%2 == 1 {
				data = v1
			}
			if _, err := s.CommitXMLBytes(url, "", "", data); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.CommitXMLBytes(url, "", "", v1ws)
				if err != nil {
					t.Errorf("refetcher: %v", err)
					return
				}
				if res.Status == StatusUnchanged {
					if got := res.Doc.XML(); got != canon1 {
						t.Errorf("unchanged refetch paired with a superseded version: %s", got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Stats(); got.SkippedStructHash == 0 {
		t.Log("note: no tier-2 hits occurred in this run (all refetches raced with writes)")
	}
}

// TestUnchangedHasOneDefinition commits a page whose data node is split
// by a comment, then the same text as one node, then whitespace reflows
// of that. The split and the joined tree serialise alike but are
// different trees, so every commit path must call the second fetch
// updated: the tiered byte path, the always-diff baseline and the DOM
// path agree because all three decide "unchanged" by the structural root
// hash. The stored page then holds the joined tree, and the reflowed
// refetches resolve at tier 2 without a parse.
func TestUnchangedHasOneDefinition(t *testing.T) {
	const url = "http://shop.example/split.xml"
	fetches := [][]byte{
		[]byte(`<a><b>x<!--c-->y</b><c/></a>`),
		[]byte(`<a><b>xy</b><c/></a>`),
		[]byte("<a>\n  <b>xy</b>\n  <c/>\n</a>"),
		[]byte("<a> <b>xy</b> <c></c> </a>"),
		[]byte("<a><b> xy </b>\n<c/></a>"),
	}
	want := []Status{StatusNew, StatusUpdated, StatusUnchanged, StatusUnchanged, StatusUnchanged}
	c := &fakeClock{}
	tiered, baseline, dom := NewStore(WithClock(c.now)), NewStore(WithClock(c.now), WithAlwaysDiff()), NewStore(WithClock(c.now))
	for i, data := range fetches {
		for name, commit := range map[string]func() (*CommitResult, error){
			"tiered":   func() (*CommitResult, error) { return tiered.CommitXMLBytes(url, "", "", data) },
			"baseline": func() (*CommitResult, error) { return baseline.CommitXMLBytes(url, "", "", data) },
			"dom":      func() (*CommitResult, error) { return dom.CommitXML(url, "", "", xmldom.MustParse(string(data))) },
		} {
			r, err := commit()
			if err != nil {
				t.Fatalf("%s fetch %d: %v", name, i, err)
			}
			if r.Status != want[i] {
				t.Errorf("%s fetch %d: status %v, want %v", name, i, r.Status, want[i])
			}
			if b := r.Doc.Root.Children[0]; i >= 1 && len(b.Children) != 1 {
				t.Errorf("%s fetch %d: stored <b> has %d data nodes, want 1", name, i, len(b.Children))
			}
		}
	}
	if got := tiered.Stats(); got != (Stats{SkippedStructHash: 3, Parsed: 2, Diffed: 1}) {
		t.Errorf("tiered stats %+v, want 3 tier-2 hits after one update", got)
	}
}
