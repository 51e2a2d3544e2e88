package xmldom

import "unicode/utf8"

var (
	escQuot = []byte("&#34;")
	escApos = []byte("&#39;")
	escAmp  = []byte("&amp;")
	escLT   = []byte("&lt;")
	escGT   = []byte("&gt;")
	escTab  = []byte("&#x9;")
	escNL   = []byte("&#xA;")
	escCR   = []byte("&#xD;")
	escFFFD = []byte("�")
)

// escPlain marks ASCII bytes that pass through AppendEscaped verbatim:
// printable ASCII minus the five characters with escape sequences. Tab,
// newline, and CR are excluded — they escape to character references.
var escPlain [256]bool

func init() {
	for c := 0x20; c <= 0x7E; c++ {
		escPlain[c] = true
	}
	for _, c := range []byte{'"', '\'', '&', '<', '>'} {
		escPlain[c] = false
	}
}

// AppendEscaped appends s to dst with XML escaping, byte-identical to
// encoding/xml's EscapeText (TestAppendEscapedMatchesStdlib). AppendXML
// escapes text and attribute values with it, and generators that render
// documents straight to bytes (webgen's byte-first fetch path) use it so
// their output is exactly the canonical serialisation.
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		if escPlain[s[i]] {
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		i += width
		var esc []byte
		switch r {
		case '"':
			esc = escQuot
		case '\'':
			esc = escApos
		case '&':
			esc = escAmp
		case '<':
			esc = escLT
		case '>':
			esc = escGT
		case '\t':
			esc = escTab
		case '\n':
			esc = escNL
		case '\r':
			esc = escCR
		default:
			if !isInCharacterRange(r) || (r == 0xFFFD && width == 1) {
				esc = escFFFD
				break
			}
			continue
		}
		dst = append(dst, s[last:i-width]...)
		dst = append(dst, esc...)
		last = i
	}
	return append(dst, s[last:]...)
}

// AppendXML appends the subtree serialised as XML to dst: the canonical
// form, with text and attribute values escaped by AppendEscaped and no
// insignificant whitespace, so ParseBytes of the output rebuilds the
// tree. (Adjacent data nodes serialise as one run of text and so
// reparse as one node.)
func (n *Node) AppendXML(dst []byte) []byte {
	if n.Type == TextNode {
		return AppendEscaped(dst, n.Text)
	}
	dst = append(dst, '<')
	dst = append(dst, n.Tag...)
	for _, a := range n.Attrs {
		dst = append(dst, ' ')
		dst = append(dst, a.Name...)
		dst = append(dst, '=', '"')
		dst = AppendEscaped(dst, a.Value)
		dst = append(dst, '"')
	}
	if len(n.Children) == 0 {
		return append(dst, '/', '>')
	}
	dst = append(dst, '>')
	for _, c := range n.Children {
		dst = c.AppendXML(dst)
	}
	dst = append(dst, '<', '/')
	dst = append(dst, n.Tag...)
	return append(dst, '>')
}

// XML returns the subtree serialised as a string.
func (n *Node) XML() string {
	return string(n.AppendXML(nil))
}

// XML returns the document serialised as a string.
func (d *Document) XML() string {
	if d == nil || d.Root == nil {
		return ""
	}
	return d.Root.XML()
}
