package main

import "strconv"

// runRawxml flags every encoding/xml import in non-test code. The
// ingest hot path parses with the hand-rolled byte tokenizer
// (xmldom.ParseBytes) and screens documents with the streaming
// pre-filter before any DOM exists; an encoding/xml decoder smuggled
// into a package would reintroduce exactly the per-token allocations
// that path removed, invisibly to the benchmarks. Serialisation is
// covered too (Node.AppendXML, xmldom.AppendEscaped), so no shipped
// package, internal/xmldom included, has a legitimate need for the
// import. Test files are outside the rule because the loader skips
// _test.go: that is where internal/xmldom keeps the stdlib decoder as
// the byte parser's differential oracle.
func runRawxml(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || path != "encoding/xml" {
				continue
			}
			out = append(out, Finding{
				Pos:  imp.Pos(),
				Rule: "rawxml",
				Msg:  "import of encoding/xml in non-test code; use xmldom.ParseBytes / Node.AppendXML / AppendEscaped so the zero-copy ingest path cannot silently regress",
			})
		}
	}
	return out
}
