package cluster

import (
	"bytes"
	"errors"
	"testing"

	"xymon/internal/core"
)

// FuzzClusterFrames holds the payload decoders of the wire protocol to
// one contract: every input is either rejected with ErrProtocol or
// re-encodes byte-identically through its encoder.
func FuzzClusterFrames(f *testing.F) {
	f.Add(encodeMatchV2(3, []uint32{0, 5, 63}, []uint32{1, 2, 9}))
	f.Add(encodeMatchV2(1, []uint32{64}, nil))
	f.Add(encodeSubOp(2, 7, []uint32{4, 8}))
	f.Add(encodeSubs([]Sub{{ID: 1, Events: core.EventSet{1, 2}}, {ID: 9}}))
	f.Add(BuildMap(2, 2, []string{"a:1", "b:1", "c:1"}).Encode())
	f.Add(StaticMap([]string{"x:1", "y:1"}).Encode())
	f.Add([]byte(`{"version":1,"replicas":1,"blocks":null,"assign":[]}`))
	f.Add(append([]byte(" "), StaticMap([]string{"x:1"}).Encode()...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(name string, err error, reencode func() []byte) {
			if err != nil {
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("%s rejected %x without ErrProtocol: %v", name, data, err)
				}
				return
			}
			if got := reencode(); !bytes.Equal(got, data) {
				t.Fatalf("%s round trip changed the frame:\n in  %x\n out %x", name, data, got)
			}
		}
		ver, parts, events, err := decodeMatchV2(data)
		check("decodeMatchV2", err, func() []byte { return encodeMatchV2(ver, parts, events) })
		sver, id, sevents, err := decodeSubOp(data)
		check("decodeSubOp", err, func() []byte { return encodeSubOp(sver, id, sevents) })
		subs, err := decodeSubs(data)
		check("decodeSubs", err, func() []byte { return encodeSubs(subs) })
		m, err := DecodeMap(data)
		check("DecodeMap", err, func() []byte { return m.Encode() })
	})
}
