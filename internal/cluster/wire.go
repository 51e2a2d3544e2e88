package cluster

import (
	"encoding/binary"
	"fmt"
	"io"

	"xymon/internal/core"
)

// The partition-map protocol, the only one blocks and coordinators
// speak. Every message is a blob frame — kind byte, u32 little-endian
// byte length, payload — so the control plane and the match path share
// one framing and one size guard. Any other frame kind, including the
// retired v1 count-framed match request, is answered with an error
// frame, so an old client fails loudly instead of silently losing
// partitions. A read-only static block (Serve) answers '+', '-', 'd' and
// 'x' with an error frame too. Partition numbers at or above
// NumPartitions are protocol errors.
//
// Frame kinds (requests → responses):
//
//	'm' match(ver u64, np u32, parts, events)  → 'r' ids | 'S' ver | 'E'
//	'+' add(ver u64, id u32, events)           → 'k' | 'S' ver | 'E'
//	'-' remove(ver u64, id u32)                → 'k' | 'S' ver | 'E'
//	'd' dump(part u32)                         → 'D' subs | 'E'
//	'x' drop(part u32)                         → 'k' | 'E'
//	'U' install(map JSON)                      → 'k' | 'E'
//	'?' fetch map                              → 'P' map JSON | 'E'
//	'J' join(addr)     [coordinator]           → 'k' | 'E'
//	'L' leave(addr)    [coordinator]           → 'k' | 'E'
//	'V' evict(addr)    [coordinator]           → 'k' | 'E'
const (
	kindMatchV2 = 'm'
	kindResults = 'r'
	kindStale   = 'S'
	kindAdd     = '+'
	kindRemove  = '-'
	kindDump    = 'd'
	kindDumped  = 'D'
	kindDrop    = 'x'
	kindInstall = 'U'
	kindMapReq  = '?'
	kindMapResp = 'P'
	kindAck     = 'k'
	kindJoin    = 'J'
	kindLeave   = 'L'
	kindEvict   = 'V'
	kindError   = 'E'
)

// maxBlob bounds a frame's payload: a full 64-partition dump of a
// million 4-event subscriptions still fits, anything bigger is a
// protocol error, not a request to buffer gigabytes.
const maxBlob = 8 << 20

// Sub is one subscription record on the wire and in the transfer
// journal: a complex event id and its canonical atomic event set.
type Sub struct {
	ID     core.ComplexID `json:"id"`
	Events core.EventSet  `json:"events"`
}

// writeBlob frames one message.
func writeBlob(w io.Writer, kind byte, payload []byte) error {
	if len(payload) > maxBlob {
		return fmt.Errorf("%w: %d-byte frame exceeds the %d-byte cap", ErrProtocol, len(payload), maxBlob)
	}
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readBlobBody reads the length and payload of a blob frame whose kind
// byte has already been consumed.
func readBlobBody(r io.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("%w: truncated length", ErrProtocol)
	}
	if n > maxBlob {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds the %d-byte cap", ErrProtocol, n, maxBlob)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated frame", ErrProtocol)
	}
	return payload, nil
}

// readBlob reads one whole blob frame. An error frame is decoded into a
// *RemoteError so callers surface the peer's words, not a frame dump.
func readBlob(r io.Reader) (byte, []byte, error) {
	var k [1]byte
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return 0, nil, err
	}
	payload, err := readBlobBody(r)
	if err != nil {
		return 0, nil, err
	}
	if k[0] == kindError {
		return 0, nil, &RemoteError{Msg: string(payload)}
	}
	return k[0], payload, nil
}

// appendU32s appends values little-endian.
func appendU32s(dst []byte, values []uint32) []byte {
	for _, v := range values {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		dst = append(dst, b[:]...)
	}
	return dst
}

// u32s reinterprets a payload tail as a u32 list.
func u32s(b []byte) ([]uint32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("%w: %d-byte value list", ErrProtocol, len(b))
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out, nil
}

func eventsToU32(s core.EventSet) []uint32 {
	out := make([]uint32, len(s))
	for i, e := range s {
		out[i] = uint32(e)
	}
	return out
}

func u32ToEvents(vals []uint32) []core.Event {
	out := make([]core.Event, len(vals))
	for i, v := range vals {
		out[i] = core.Event(v)
	}
	return out
}

// encodeMatchV2 builds the 'm' payload: map version, partition filter,
// event set.
func encodeMatchV2(ver uint64, parts []uint32, events []uint32) []byte {
	out := make([]byte, 0, 12+4*(len(parts)+len(events)))
	out = binary.LittleEndian.AppendUint64(out, ver)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(parts)))
	out = appendU32s(out, parts)
	out = appendU32s(out, events)
	return out
}

func decodeMatchV2(b []byte) (ver uint64, parts, events []uint32, err error) {
	if len(b) < 12 {
		return 0, nil, nil, fmt.Errorf("%w: short match frame", ErrProtocol)
	}
	ver = binary.LittleEndian.Uint64(b)
	np := binary.LittleEndian.Uint32(b[8:])
	rest := b[12:]
	if uint64(np) > uint64(len(rest))/4 || np > NumPartitions {
		return 0, nil, nil, fmt.Errorf("%w: match frame with %d partitions", ErrProtocol, np)
	}
	if parts, err = u32s(rest[:4*np]); err != nil {
		return 0, nil, nil, err
	}
	for _, p := range parts {
		if p >= NumPartitions {
			return 0, nil, nil, fmt.Errorf("%w: partition %d out of range", ErrProtocol, p)
		}
	}
	if events, err = u32s(rest[4*np:]); err != nil {
		return 0, nil, nil, err
	}
	if len(events) > maxSetLen {
		return 0, nil, nil, fmt.Errorf("%w: match frame of %d events", ErrProtocol, len(events))
	}
	return ver, parts, events, nil
}

// encodeSubOp builds the '+' (with events) or '-' (without) payload.
func encodeSubOp(ver uint64, id uint32, events []uint32) []byte {
	out := make([]byte, 0, 12+4*len(events))
	out = binary.LittleEndian.AppendUint64(out, ver)
	out = binary.LittleEndian.AppendUint32(out, id)
	return appendU32s(out, events)
}

func decodeSubOp(b []byte) (ver uint64, id uint32, events []uint32, err error) {
	if len(b) < 12 {
		return 0, 0, nil, fmt.Errorf("%w: short subscription frame", ErrProtocol)
	}
	ver = binary.LittleEndian.Uint64(b)
	id = binary.LittleEndian.Uint32(b[8:])
	if events, err = u32s(b[12:]); err != nil {
		return 0, 0, nil, err
	}
	if len(events) > maxSetLen {
		return 0, 0, nil, fmt.Errorf("%w: subscription of %d events", ErrProtocol, len(events))
	}
	return ver, id, events, nil
}

func encodeU32(v uint32) []byte {
	return binary.LittleEndian.AppendUint32(nil, v)
}

// decodePart reads the 'd'/'x' payload: one partition number.
func decodePart(b []byte) (int, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("%w: expected a u32 payload, got %d bytes", ErrProtocol, len(b))
	}
	p := binary.LittleEndian.Uint32(b)
	if p >= NumPartitions {
		return 0, fmt.Errorf("%w: partition %d out of range", ErrProtocol, p)
	}
	return int(p), nil
}

func encodeU64(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
}

func decodeU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: expected a u64 payload, got %d bytes", ErrProtocol, len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// encodeSubs builds the 'D' payload: repeated (id, n, events[n]).
func encodeSubs(subs []Sub) []byte {
	var out []byte
	for _, s := range subs {
		out = binary.LittleEndian.AppendUint32(out, uint32(s.ID))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.Events)))
		out = appendU32s(out, eventsToU32(s.Events))
	}
	return out
}

func decodeSubs(b []byte) ([]Sub, error) {
	var subs []Sub
	for len(b) > 0 {
		if len(b) < 8 {
			return nil, fmt.Errorf("%w: truncated subscription record", ErrProtocol)
		}
		id := binary.LittleEndian.Uint32(b)
		n := binary.LittleEndian.Uint32(b[4:])
		b = b[8:]
		if uint64(n) > uint64(len(b))/4 || n > maxSetLen {
			return nil, fmt.Errorf("%w: subscription record of %d events", ErrProtocol, n)
		}
		vals, err := u32s(b[:4*n])
		if err != nil {
			return nil, err
		}
		subs = append(subs, Sub{ID: core.ComplexID(id), Events: core.EventSet(u32ToEvents(vals))})
		b = b[4*n:]
	}
	return subs, nil
}
