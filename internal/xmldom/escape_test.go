package xmldom

import (
	"encoding/xml"
	"strings"
	"testing"
)

// TestAppendEscapedMatchesStdlib holds AppendEscaped byte-identical to
// xml.EscapeText, the escaping the canonical serialisation has always
// used: snapshots and journals written before the serialiser moved onto
// AppendEscaped must keep their bytes.
func TestAppendEscapedMatchesStdlib(t *testing.T) {
	cases := []string{
		"",
		"plain words",
		`<">&'`,
		"tab\tnl\ncr\r",
		"camera & <radio>",
		"� ok é世",
		"\x01\x0b", // outside the XML character range
		"\xff\xfe", // invalid UTF-8
		strings.Repeat("a&b", 100),
	}
	for _, s := range cases {
		var b strings.Builder
		if err := xml.EscapeText(&b, []byte(s)); err != nil {
			t.Fatalf("EscapeText(%q): %v", s, err)
		}
		if got := string(AppendEscaped(nil, s)); got != b.String() {
			t.Errorf("AppendEscaped(%q) = %q, want %q", s, got, b.String())
		}
	}
}

// TestAppendXMLCanonical pins the serialiser's exact bytes: compact
// form, attributes in order, escapes from AppendEscaped in both text and
// attribute values, and self-closing empty elements.
func TestAppendXMLCanonical(t *testing.T) {
	root := Element("r",
		Element("a").WithAttr("k", `x&"y'`).WithAttr("z", "tab\tnl\n"),
		Element("b", Text("1 < 2 & 3 > 0")),
		Element("c", Text("x"), Text("y")),
	)
	want := `<r><a k="x&amp;&#34;y&#39;" z="tab&#x9;nl&#xA;"/><b>1 &lt; 2 &amp; 3 &gt; 0</b><c>xy</c></r>`
	if got := NewDocument(root).XML(); got != want {
		t.Fatalf("XML() =\n %s\nwant\n %s", got, want)
	}
	if got := string(root.AppendXML([]byte("prefix:"))); got != "prefix:"+want {
		t.Fatalf("AppendXML did not append: %s", got)
	}
	if (*Document)(nil).XML() != "" || (&Document{}).XML() != "" {
		t.Fatal("empty document must serialise to the empty string")
	}
}
