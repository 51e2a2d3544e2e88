package warehouse

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"xymon/internal/xmldom"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, clock := newTestStore()
	s.CommitXML("http://a.example/c.xml", "http://a.example/c.dtd", "shopping",
		xmldom.MustParse(`<catalog><product>radio</product></catalog>`))
	clock.advance(1)
	s.CommitXML("http://a.example/c.xml", "http://a.example/c.dtd", "shopping",
		xmldom.MustParse(`<catalog><product>radio</product><product>tv</product></catalog>`))
	s.CommitHTML("http://a.example/i.html", []byte("<html>hello</html>"))
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}

	s2, _ := newTestStore()
	if err := s2.Load(dir); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if s2.Len() != 2 {
		t.Fatalf("Len = %d", s2.Len())
	}
	e, err := s2.Get("http://a.example/c.xml")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if e.Meta.Version != 2 || e.Meta.Domain != "shopping" || e.Meta.DTDID == 0 {
		t.Errorf("meta = %+v", e.Meta)
	}
	if e.Doc == nil || len(e.Doc.Root.Elements("product")) != 2 {
		t.Errorf("doc = %v", e.Doc)
	}
	// Change detection continues working: an identical commit is unchanged,
	// because the signature was restored.
	r, err := s2.CommitXML("http://a.example/c.xml", "", "",
		xmldom.MustParse(`<catalog><product>radio</product><product>tv</product></catalog>`))
	if err != nil || r.Status != StatusUnchanged {
		t.Errorf("recommit = %+v, %v", r, err)
	}
	// A changed commit yields a delta against the restored version.
	r, err = s2.CommitXML("http://a.example/c.xml", "", "",
		xmldom.MustParse(`<catalog><product>radio</product></catalog>`))
	if err != nil || r.Status != StatusUpdated || r.Delta.Empty() {
		t.Errorf("changed recommit = %+v, %v", r, err)
	}
	// The HTML page kept its signature too.
	rh, _ := s2.CommitHTML("http://a.example/i.html", []byte("<html>hello</html>"))
	if rh.Status != StatusUnchanged {
		t.Errorf("html recommit = %v", rh.Status)
	}
	// DocIDs keep increasing past the snapshot.
	rn, _ := s2.CommitXML("http://a.example/new.xml", "", "", xmldom.MustParse(`<n/>`))
	if rn.Meta.DocID <= e.Meta.DocID {
		t.Errorf("DocID %d not beyond snapshot ids", rn.Meta.DocID)
	}
	// Domain views restored.
	if len(s2.DomainRoots("shopping")) != 1 {
		t.Errorf("domain view not restored")
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestStore()
	if err := s.Load(dir); err == nil {
		t.Error("Load without manifest should fail")
	}
	os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("not json"), 0o644)
	if err := s.Load(dir); err == nil {
		t.Error("corrupt manifest should fail")
	}
	// Non-empty store rejects Load.
	s.CommitXML("u", "", "", xmldom.MustParse(`<a/>`))
	good, _ := newTestStore()
	good.CommitXML("u2", "", "", xmldom.MustParse(`<b/>`))
	gdir := t.TempDir()
	if err := good.Save(gdir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := s.Load(gdir); err == nil {
		t.Error("Load into non-empty store should fail")
	}
	// Corrupt document file.
	bdir := t.TempDir()
	if err := good.Save(bdir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	entries, _ := os.ReadDir(bdir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".xml" {
			os.WriteFile(filepath.Join(bdir, e.Name()), []byte("<broken"), 0o644)
		}
	}
	fresh, _ := newTestStore()
	if err := fresh.Load(bdir); err == nil {
		t.Error("corrupt document should fail")
	}
}

// TestLoadPrimesStructHash: a page restored from a snapshot keeps tier 2.
// Whitespace-reflowed refetches of the unchanged page resolve by the
// streaming structural hash, with no parse.
func TestLoadPrimesStructHash(t *testing.T) {
	const url = "http://a.example/c.xml"
	dir := t.TempDir()
	s, _ := newTestStore()
	if _, err := s.CommitXMLBytes(url, "", "", []byte(`<catalog><product id="p1">radio</product><product id="p2">tv</product></catalog>`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	s2, _ := newTestStore()
	if err := s2.Load(dir); err != nil {
		t.Fatalf("Load: %v", err)
	}
	for i, data := range []string{
		"<catalog>\n <product id=\"p1\">radio</product>\n <product id=\"p2\">tv</product>\n</catalog>",
		"<catalog><product id='p1'>radio</product><product id='p2'>tv</product></catalog>",
		"<catalog> <product id=\"p1\"> radio </product><product id=\"p2\">tv</product> </catalog>",
		"<catalog><product id=\"p1\" >radio</product>\t<product id=\"p2\" >tv</product></catalog>",
	} {
		r, err := s2.CommitXMLBytes(url, "", "", []byte(data))
		if err != nil || r.Status != StatusUnchanged {
			t.Fatalf("reflowed refetch %d: %v, %v", i, r, err)
		}
	}
	if got := s2.Stats(); got != (Stats{SkippedStructHash: 4}) {
		t.Errorf("stats after restore %+v, want 4 tier-2 hits and no parse", got)
	}
}

// TestLoadSignedXMLManifest loads a snapshot in the format that carried a
// content signature for every page, XML included (the SHA-256 of the
// canonical form). The XML signature is ignored; the HTML signature
// still drives change detection and is still validated.
func TestLoadSignedXMLManifest(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const canon = `<catalog><product>radio</product><product>tv</product></catalog>`
	xmlSig, htmlSig := Signature([]byte(canon)), Signature([]byte("<html>hello</html>"))
	manifest := func(htmlSigHex string) string {
		return `{
  "next_doc": 3,
  "next_dtd": 1,
  "pages": [
    {"url": "http://a.example/c.xml", "filename": "c.xml", "docid": 1, "domain": "shopping", "type": "xml",
     "last_accessed": "2001-05-21T09:00:00Z", "last_update": "2001-05-21T09:00:00Z", "version": 2,
     "signature": "` + hex.EncodeToString(xmlSig[:]) + `", "file": "doc000000.xml"},
    {"url": "http://a.example/i.html", "filename": "i.html", "docid": 2, "type": "html",
     "last_accessed": "2001-05-21T09:00:00Z", "last_update": "2001-05-21T09:00:00Z", "version": 1,
     "signature": "` + htmlSigHex + `"}
  ]
}`
	}
	write("doc000000.xml", canon)
	write("manifest.json", manifest(hex.EncodeToString(htmlSig[:])))
	s, _ := newTestStore()
	if err := s.Load(dir); err != nil {
		t.Fatalf("Load: %v", err)
	}
	r, err := s.CommitXMLBytes("http://a.example/c.xml", "", "", []byte("<catalog>\n<product>radio</product>\n<product>tv</product>\n</catalog>"))
	if err != nil || r.Status != StatusUnchanged || r.Meta.Version != 2 {
		t.Fatalf("xml refetch = %+v, %v", r, err)
	}
	if rh, _ := s.CommitHTML("http://a.example/i.html", []byte("<html>hello</html>")); rh.Status != StatusUnchanged {
		t.Errorf("html refetch = %v, want unchanged", rh.Status)
	}

	write("manifest.json", manifest("not-hex"))
	if err := NewStore().Load(dir); err == nil {
		t.Error("a malformed HTML signature must still fail Load")
	}
}
