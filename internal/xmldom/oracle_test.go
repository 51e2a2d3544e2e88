package xmldom

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// stdlibParse is the differential oracle for ParseBytes: the same DOM
// construction rules (whitespace-only and top-level text dropped;
// comments, processing instructions and directives ignored) driven by the
// strict encoding/xml decoder. It exists only in tests, so the stdlib
// decoder never reaches a shipped binary; FuzzParseBytes and
// TestParseBytesParity hold the byte tokenizer to its accept/reject
// decisions and tree shapes.
func stdlibParse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldom: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Type: ElementNode, Tag: t.Name.Local}
			for _, a := range t.Attr {
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, errors.New("xmldom: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].AppendChild(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, errors.New("xmldom: unbalanced end element")
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text := strings.TrimSpace(string(t))
			if text == "" || len(stack) == 0 {
				continue
			}
			stack[len(stack)-1].AppendChild(Text(text))
		}
	}
	if root == nil {
		return nil, ErrNoRoot
	}
	if len(stack) != 0 {
		return nil, errors.New("xmldom: unexpected end of input")
	}
	return NewDocument(root), nil
}

// benchCatalog renders a catalog of n products in the compact canonical
// form, the shape the crawler ingests.
func benchCatalog(n int) []byte {
	var b strings.Builder
	b.WriteString(`<catalog site="http://shop.example/">`)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<product id="p%d"><name>radio model %d</name><category>audio &amp; video</category><price>%d</price></product>`, i, i, 10+i%90)
	}
	b.WriteString(`</catalog>`)
	return []byte(b.String())
}

// BenchmarkParse compares the stdlib-decoder oracle against ParseBytes,
// the byte tokenizer with arena node allocation that every production
// caller parses through, over the same 100-product catalog.
func BenchmarkParse(b *testing.B) {
	data := benchCatalog(100)
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stdlibParse(bytes.NewReader(data)); err != nil {
				b.Fatalf("stdlibParse: %v", err)
			}
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseBytes(data); err != nil {
				b.Fatalf("ParseBytes: %v", err)
			}
		}
	})
}
