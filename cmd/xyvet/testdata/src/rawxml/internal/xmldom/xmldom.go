// Package xmldom stands in for the DOM package itself: it gets no
// exemption, because no shipped binary needs the stdlib decoder.
package xmldom

import (
	"encoding/xml" // want rawxml
	"strings"
)

// Parse decodes the first token with the forbidden decoder.
func Parse(src string) (xml.Token, error) {
	return xml.NewDecoder(strings.NewReader(src)).Token()
}
