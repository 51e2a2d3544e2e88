package xmldom

// A test file may import the stdlib decoder as a differential oracle:
// the loader skips _test.go, so this import is not a finding.
import (
	"encoding/xml"
	"strings"
	"testing"
)

func TestOracle(t *testing.T) {
	if _, err := xml.NewDecoder(strings.NewReader("<a/>")).Token(); err != nil {
		t.Fatal(err)
	}
}
