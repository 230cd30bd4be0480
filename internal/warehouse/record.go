package warehouse

import (
	"encoding/json"
	"strconv"
)

// replayDecoder turns the warehouse's WAL payloads back into Records at
// Open. json.Marshal is the only writer and json.Unmarshal the
// definition of the format; the decoder only makes the common case
// cheap. A payload in the exact byte shape json.Marshal(Record) writes —
// fields in declaration order, no whitespace, strings with no escape, no
// control byte and no byte ≥ 0x80 — is scanned directly, its numbers
// parsed by the strconv calls encoding/json makes. Anything else (an
// older writer's field order or set, an escaped string, hand-written
// JSON) goes to json.Unmarshal, whose result and error stand as they
// are.
//
// The scanner also saves allocations: every string it reads — field
// values and scalar names alike — is interned for the length of one
// replay, so the six stage records of a point share one Key and a whole
// campaign one Campaign. A decoder belongs to one Open call and is used
// serially; its table goes with it.
type replayDecoder struct {
	strs map[string]string // every string the scanner has read this replay
}

// decodeRecord decodes one WAL payload: what json.Unmarshal would
// return into a zero Record.
func (d *replayDecoder) decodeRecord(payload []byte) (Record, error) {
	if rec, ok := d.scan(payload); ok {
		return rec, nil
	}
	var rec Record
	err := json.Unmarshal(payload, &rec)
	return rec, err
}

// scan decodes payload if it is in json.Marshal's shape, and reports
// whether it was.
func (d *replayDecoder) scan(payload []byte) (rec Record, ok bool) {
	s := scanner{b: payload}
	s.lit(`{"Campaign":`)
	rec.Campaign = d.intern(s.str())
	s.lit(`,"Point":`)
	rec.Point = int(s.int(strconv.IntSize))
	s.lit(`,"Stage":`)
	rec.Stage = d.intern(s.str())
	s.lit(`,"Node":`)
	rec.Node = d.intern(s.str())
	s.lit(`,"Corner":`)
	rec.Corner = d.intern(s.str())
	s.lit(`,"Key":`)
	rec.Key = d.intern(s.str())
	s.lit(`,"Design":`)
	rec.Design = d.intern(s.str())
	s.lit(`,"Seed":`)
	rec.Seed = s.int(64)
	s.lit(`,"FreqGHz":`)
	rec.FreqGHz = s.float()
	s.lit(`,"Outcome":`)
	rec.Outcome = d.intern(s.str())
	s.lit(`,"Scalars":`)
	rec.Scalars = d.scalars(&s)
	s.lit(`,"Unix":`)
	rec.Unix = s.int(64)
	s.lit(`}`)
	if s.bad || s.i != len(s.b) {
		return Record{}, false
	}
	return rec, true
}

// scalars scans the Scalars value: null (a nil map) or an object of
// numbers (a non-nil map, the last of duplicate names winning).
func (d *replayDecoder) scalars(s *scanner) map[string]float64 {
	if s.bad || s.peek() == 'n' {
		s.lit("null")
		return nil
	}
	s.lit("{")
	m := map[string]float64{}
	if s.peek() == '}' {
		s.i++
		return m
	}
	for !s.bad {
		name := s.str()
		s.lit(":")
		v := s.float()
		if s.bad {
			return nil
		}
		m[d.intern(name)] = v
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return m
		default:
			s.bad = true
		}
	}
	return nil
}

// intern returns b as a string, the same one every time this replay.
func (d *replayDecoder) intern(b []byte) string {
	if len(b) == 0 {
		return "" // no allocation to save, and the scanner may have failed
	}
	if n, ok := d.strs[string(b)]; ok {
		return n
	}
	if d.strs == nil {
		d.strs = map[string]string{}
	}
	n := string(b)
	d.strs[n] = n
	return n
}

// scanner reads one payload left to right. The first mismatch sets bad,
// after which every read is a no-op returning a zero value.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// peek returns the next byte, or 0 at the end.
func (s *scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// lit consumes the literal lit.
func (s *scanner) lit(lit string) {
	if s.bad || len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		s.bad = true
		return
	}
	s.i += len(lit)
}

// str consumes a quoted string with no escape, no control byte and no
// byte ≥ 0x80, and returns its contents.
func (s *scanner) str() []byte {
	if s.bad || s.peek() != '"' {
		s.bad = true
		return nil
	}
	start := s.i + 1
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.b[start:i]
		case c == '\\' || c < 0x20 || c >= 0x80:
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// number consumes a number in the JSON grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and returns it.
func (s *scanner) number() []byte {
	if s.bad {
		return nil
	}
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	switch c := s.peek(); {
	case c == '0':
		s.i++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		s.bad = true
		return nil
	}
	if s.peek() == '.' {
		s.i++
		if !s.digits() {
			return nil
		}
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		if !s.digits() {
			return nil
		}
	}
	return s.b[start:s.i]
}

// digits consumes one or more decimal digits; none sets bad.
func (s *scanner) digits() bool {
	start := s.i
	for c := s.peek(); '0' <= c && c <= '9'; c = s.peek() {
		s.i++
	}
	if s.i == start {
		s.bad = true
	}
	return !s.bad
}

// int consumes a number and parses it as encoding/json does for an
// integer field of the given bit size.
func (s *scanner) int(bits int) int64 {
	num := s.number()
	if s.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, bits)
	s.bad = err != nil
	return n
}

// float consumes a number and parses it as encoding/json does for a
// float64 field.
func (s *scanner) float() float64 {
	num := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	s.bad = err != nil
	return f
}
