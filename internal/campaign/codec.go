package campaign

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
)

// The entry codec is gob, one self-contained gob stream per record: a
// type section — one type-definition message per type an Entry reaches —
// then one value message. Gob sends the section per type, not per value,
// and numbers types process-wide, so every record a process writes opens
// with the same ~2.9 KB section, and parsing and compiling it is nearly
// all of a fresh decode. The codec therefore keeps streams open behind
// the same bytes: an encoder that has sent its section writes only value
// messages after it, and a decoder that has read a section successfully
// decodes the value message of a later record that opens with those
// exact bytes — what a fresh decoder would do after reading them again.

const (
	// maxSections caps the distinct type sections decoders are kept
	// primed for. Records come off disks and sockets, so sections are
	// input; a record past the cap still decodes, on a fresh decoder.
	maxSections = 8
	// maxIdle caps the primed decoders kept per section, and the primed
	// encoders kept. The pools are free lists, not sync.Pools: a GC
	// would drop primed streams, and each costs a fresh decode to rebuild.
	maxIdle = 8
)

// EncodeEntry serializes an entry for the durable log or the network
// result store — the one wire format a journaled point has, so a store
// node and a local journal can exchange records and decode the same
// entry. Two encodes of one entry need not be the same bytes: gob writes
// a map (StepRecord.Metrics) in iteration order.
func EncodeEntry(e Entry) ([]byte, error) {
	if e.Res != nil {
		e.Res = e.Res.Summary()
	}
	data, err := encodeGob(e)
	if err != nil {
		return nil, fmt.Errorf("campaign: encode entry: %w", err)
	}
	return data, nil
}

// DecodeEntry parses an encoded entry, rejecting structurally empty
// records (no key or no result) the same way journal recovery does.
func DecodeEntry(data []byte) (Entry, error) {
	var e Entry
	if err := decodeGob(data, &e); err != nil {
		return Entry{}, fmt.Errorf("campaign: decode entry: %w", err)
	}
	if e.Key == "" || e.Res == nil {
		return Entry{}, fmt.Errorf("campaign: decode entry: missing key or result")
	}
	return e, nil
}

// primedEncoder is a gob.Encoder that has sent section: its next Encode
// writes one value message into buf.
type primedEncoder struct {
	buf     bytes.Buffer
	enc     *gob.Encoder
	section []byte
}

var encoders struct {
	sync.Mutex
	idle []*primedEncoder
}

// encodeGob writes e as one gob stream. A primed encoder writes the value
// message, which follows the section it sent with its first record; a
// fresh one writes both and is kept as primed. An encoder that fails, or
// that sends a type definition after its section — a type a later
// record's section would then lack — is dropped.
func encodeGob(e Entry) ([]byte, error) {
	encoders.Lock()
	var p *primedEncoder
	if n := len(encoders.idle); n > 0 {
		p, encoders.idle = encoders.idle[n-1], encoders.idle[:n-1]
	}
	encoders.Unlock()
	if p != nil {
		p.buf.Reset()
		if err := p.enc.Encode(e); err != nil {
			return nil, err
		}
		if sectionLen(p.buf.Bytes()) == 0 {
			data := make([]byte, 0, len(p.section)+p.buf.Len())
			data = append(append(data, p.section...), p.buf.Bytes()...)
			keepEncoder(p)
			return data, nil
		}
	}
	p = new(primedEncoder)
	p.enc = gob.NewEncoder(&p.buf)
	if err := p.enc.Encode(e); err != nil {
		return nil, err
	}
	data := bytes.Clone(p.buf.Bytes())
	if n := sectionLen(data); n > 0 {
		p.section = bytes.Clone(data[:n]) // the caller owns data
		keepEncoder(p)
	}
	return data, nil
}

func keepEncoder(p *primedEncoder) {
	encoders.Lock()
	if len(encoders.idle) < maxIdle {
		encoders.idle = append(encoders.idle, p)
	}
	encoders.Unlock()
}

// primedDecoder is a gob.Decoder and the reader it reads. Once it has
// decoded a record it holds the record's section, compiled, and a later
// value message is handed to it by resetting src.
type primedDecoder struct {
	src bytes.Reader
	dec *gob.Decoder
}

// decoders keeps primed decoders by the exact bytes of their section.
var decoders = struct {
	sync.Mutex
	sections map[string]*[]*primedDecoder
}{sections: map[string]*[]*primedDecoder{}}

// decodeGob decodes the one-value gob stream data into e: on a decoder
// primed with data's section if one is idle, which then reads only the
// value message, else on a fresh decoder, which is kept as primed if it
// succeeds. A decoder that returns an error is dropped.
func decodeGob(data []byte, e *Entry) error {
	n := sectionLen(data)
	section := data[:n]
	d := takeDecoder(section)
	if d != nil {
		d.src.Reset(data[n:])
	} else {
		d = new(primedDecoder)
		d.dec = gob.NewDecoder(&d.src) // a bytes.Reader: gob adds no buffering
		d.src.Reset(data)
	}
	err := d.dec.Decode(e)
	d.src.Reset(nil) // pin no caller buffer while idle
	if err == nil && n > 0 {
		keepDecoder(section, d)
	}
	return err
}

func takeDecoder(section []byte) *primedDecoder {
	decoders.Lock()
	defer decoders.Unlock()
	idle := decoders.sections[string(section)]
	if idle == nil || len(*idle) == 0 {
		return nil
	}
	d := (*idle)[len(*idle)-1]
	*idle = (*idle)[:len(*idle)-1]
	return d
}

func keepDecoder(section []byte, d *primedDecoder) {
	decoders.Lock()
	defer decoders.Unlock()
	idle := decoders.sections[string(section)]
	if idle == nil {
		if len(decoders.sections) >= maxSections {
			return
		}
		idle = new([]*primedDecoder)
		decoders.sections[string(section)] = idle
	}
	if len(*idle) < maxIdle {
		*idle = append(*idle, d)
	}
}

// sectionLen is the length of the type section data opens with: the run
// of complete type-definition messages before anything else, delimited
// exactly as gob reads them — a message is a uint byte count and that
// many bytes, which open with a signed type id, negative for a type
// definition and truncated to gob's int32 ids.
func sectionLen(data []byte) int {
	off := 0
	for {
		size, w := gobUint(data[off:])
		if w == 0 || size > uint64(len(data)-off-w) {
			return off
		}
		id, iw := gobUint(data[off+w : off+w+int(size)])
		if iw == 0 || int32(gobInt(id)) >= 0 {
			return off
		}
		off += w + int(size)
	}
}

// gobUint reads gob's uint encoding — one byte below 0x80, else a
// negated byte count and that many big-endian bytes — returning its width,
// 0 if b does not hold one.
func gobUint(b []byte) (uint64, int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || n >= len(b) {
		return 0, 0
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// gobInt is gob's signed reading of an encoded uint: the low bit is the
// sign, complemented.
func gobInt(x uint64) int64 {
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}
