package campaign

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/flow"
)

// freshDecode is the reference DecodeEntry must match: a new gob decoder
// per record, then the same key-and-result check.
func freshDecode(data []byte) (Entry, error) {
	var e Entry
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&e); err != nil {
		return Entry{}, err
	}
	if e.Key == "" || e.Res == nil {
		return Entry{}, errors.New("missing key or result")
	}
	return e, nil
}

// sameBits is reflect.DeepEqual for the trees gob decodes, except that
// floats compare by bits: a fuzzed record may carry NaNs, which DeepEqual
// never finds equal to themselves.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Complex64, reflect.Complex128:
		ca, cb := a.Complex(), b.Complex()
		return math.Float64bits(real(ca)) == math.Float64bits(real(cb)) &&
			math.Float64bits(imag(ca)) == math.Float64bits(imag(cb))
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() || !sameBits(it.Value(), bv) {
				return false
			}
		}
		return true
	}
	panic(fmt.Sprintf("sameBits: %s of kind %s", a.Type(), a.Kind()))
}

// sameAsFresh fails t unless DecodeEntry and the fresh reference agree on
// data: both fail, or both return the same entry.
func sameAsFresh(t testing.TB, data []byte) {
	t.Helper()
	got, err := DecodeEntry(data)
	want, werr := freshDecode(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("DecodeEntry error %v, fresh decode error %v", err, werr)
	}
	if err == nil && !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatal("DecodeEntry and a fresh decode returned different entries")
	}
}

// resetDecoders empties the primed-decoder pool now and when t ends, so a
// test that counts sections starts from none and leaves room behind it.
func resetDecoders(t *testing.T) {
	reset := func() {
		decoders.Lock()
		decoders.sections = map[string]*[]*primedDecoder{}
		decoders.Unlock()
	}
	reset()
	t.Cleanup(reset)
}

// idleDecoders is how many primed decoders the pool holds for section,
// and whether it has a slot for the section at all.
func idleDecoders(section []byte) (int, bool) {
	decoders.Lock()
	defer decoders.Unlock()
	idle, ok := decoders.sections[string(section)]
	if !ok {
		return 0, false
	}
	return len(*idle), true
}

func pulpinoRecord(t testing.TB) []byte {
	data, err := EncodeEntry(pulpinoEntry())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// gobEncode is one fresh gob stream of v, as a process that had never
// encoded anything would write it.
func gobEncode(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// messages splits a gob stream into its complete messages (byte count
// included) and what follows them.
func messages(data []byte) (msgs [][]byte, rest []byte) {
	for {
		size, w := gobUint(data)
		if w == 0 || size > uint64(len(data)-w) {
			return msgs, data
		}
		msgs, data = append(msgs, data[:w+int(size)]), data[w+int(size):]
	}
}

// messageID splits a complete message into its type id and its payload.
func messageID(msg []byte) (int64, []byte) {
	_, w := gobUint(msg)
	id, iw := gobUint(msg[w:])
	return gobInt(id), msg[w+iw:]
}

func appendGobUint(b []byte, x uint64) []byte {
	if x < 0x80 {
		return append(b, byte(x))
	}
	n := 0
	for y := x; y > 0; y >>= 8 {
		n++
	}
	b = append(b, byte(-n))
	for i := n - 1; i >= 0; i-- {
		b = append(b, byte(x>>(8*i)))
	}
	return b
}

// message builds one gob message: type id (negative for a definition)
// and payload, behind their byte count.
func message(id int64, payload []byte) []byte {
	u := uint64(id) << 1
	if id < 0 {
		u = uint64(^id)<<1 | 1
	}
	body := append(appendGobUint(nil, u), payload...)
	return append(appendGobUint(nil, uint64(len(body))), body...)
}

func concat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestGobWireHelpers: the test's message builder and the codec's reader
// agree with gob on a real record.
func TestGobWireHelpers(t *testing.T) {
	data := pulpinoRecord(t)
	msgs, rest := messages(data)
	if len(rest) != 0 || len(msgs) < 2 {
		t.Fatalf("%d messages, %d bytes left over", len(msgs), len(rest))
	}
	for i, m := range msgs {
		id, payload := messageID(m)
		if !bytes.Equal(message(id, payload), m) {
			t.Fatalf("message %d (id %d) does not rebuild", i, id)
		}
		if (id < 0) != (i < len(msgs)-1) {
			t.Fatalf("message %d has id %d: want type definitions, then one value", i, id)
		}
	}
	if n := sectionLen(data); n != len(data)-len(msgs[len(msgs)-1]) {
		t.Fatalf("sectionLen %d, value message starts at %d", n, len(data)-len(msgs[len(msgs)-1]))
	}
}

// TestEncodeEntryIsSectionPlusValue: whatever the entry's shape, a record
// is the type section a fresh gob encoder writes for an Entry, then one
// value message, and it decodes, fresh, to the entry's summary.
func TestEncodeEntryIsSectionPlusValue(t *testing.T) {
	full := filledEntry(t)
	shapes := []Entry{
		pulpinoEntry(),
		full,
		{Key: "k", Res: &flow.Result{}},
		{Key: "k", Res: full.Res, Steps: full.Steps[:1]},
	}
	fresh := gobEncode(t, shapes[2])
	section := fresh[:sectionLen(fresh)]
	for i, e := range shapes {
		for round := 0; round < 2; round++ { // a fresh encoder, then a primed one
			data, err := EncodeEntry(e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(data, section) {
				t.Fatalf("shape %d: record does not open with the Entry type section", i)
			}
			if msgs, rest := messages(data[len(section):]); len(msgs) != 1 || len(rest) != 0 {
				t.Fatalf("shape %d: %d messages and %d stray bytes after the section", i, len(msgs), len(rest))
			}
			got, err := freshDecode(data)
			if err != nil {
				t.Fatal(err)
			}
			want := e
			want.Res = e.Res.Summary()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shape %d: a fresh decode of the record is not the entry's summary", i)
			}
		}
	}
}

// TestDecodeEntryAllocs: a record whose section the pool has seen
// decodes on a primed decoder — ~85 allocations where a fresh decoder,
// which parses and compiles the section again, makes ~1 250.
func TestDecodeEntryAllocs(t *testing.T) {
	resetDecoders(t)
	data := pulpinoRecord(t)
	if _, err := DecodeEntry(data); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { DecodeEntry(data) }); allocs > 150 { //nolint:errcheck // decoded above
		t.Fatalf("DecodeEntry made %.0f allocations, budget 150: is it decoding fresh?", allocs)
	}
}

// TestPrimedDecoderIsolation: corrupt records that share a valid record's
// section reach a primed decoder, fail or succeed exactly as a fresh
// decode does, and leave the pool decoding the valid record as before —
// from one goroutine and from eight at once.
func TestPrimedDecoderIsolation(t *testing.T) {
	good := pulpinoRecord(t)
	n := sectionLen(good)
	section, value := good[:n], good[n:]
	defs, _ := messages(section)
	entryID, payload := messageID(value)
	variants := [][]byte{good, concat(section, value[:len(value)/2])}
	for _, d := range defs {
		// The value message again, claiming to be a component type.
		if id, _ := messageID(d); -id != entryID {
			variants = append(variants, concat(section, message(-id, payload)))
		}
	}
	_, firstDef := messageID(defs[0])
	variants = append(variants,
		concat(section, defs[0], value),                       // a type defined twice
		concat(section, message(-1000, firstDef), value),      // one type more
		concat(section, value, defs[0]),                       // a type after the value
		concat(section, value, []byte("trailing garbage")),    // bytes after the value
		concat(section, message(entryID, payload[:1]), value), // a value cut short
		good)
	type outcome struct {
		e   Entry
		err error
	}
	want := make([]outcome, len(variants))
	failed := 0
	for i, v := range variants {
		want[i].e, want[i].err = freshDecode(v)
		if want[i].err != nil {
			failed++
		}
	}
	if failed < 3 || want[len(want)-1].err != nil {
		t.Fatalf("%d of %d variants fail a fresh decode: the corruptions are not corrupt", failed, len(variants))
	}
	run := func() error {
		for i, v := range variants {
			got, err := DecodeEntry(v)
			if (err == nil) != (want[i].err == nil) {
				return fmt.Errorf("variant %d: DecodeEntry error %v, fresh decode error %v", i, err, want[i].err)
			}
			if err == nil && !reflect.DeepEqual(got, want[i].e) {
				return fmt.Errorf("variant %d: DecodeEntry and a fresh decode returned different entries", i)
			}
		}
		return nil
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	if idle, _ := idleDecoders(section); idle == 0 {
		t.Fatal("no decoder was kept primed with the record's section")
	}
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- run()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestDecodeEntrySections: a record under another section — written by a
// binary whose Entry-shaped type has another name or one field fewer —
// decodes correctly and is primed apart; past maxSections a new section
// still decodes correctly but is never kept.
func TestDecodeEntrySections(t *testing.T) {
	resetDecoders(t)
	e := pulpinoEntry()
	e.Res = e.Res.Summary()
	type entryTwin Entry
	records := [][]byte{
		pulpinoRecord(t),
		gobEncode(t, entryTwin(e)),
		gobEncode(t, struct {
			Key   string
			Res   *flow.Result
			Steps []flow.StepRecord
		}{e.Key, e.Res, e.Steps}),
	}
	// padded is an Entry-shaped record whose type carries one more field,
	// named for i: a section of its own.
	padded := func(i int) []byte {
		typ := reflect.StructOf([]reflect.StructField{
			{Name: "Key", Type: reflect.TypeOf(e.Key)},
			{Name: "Res", Type: reflect.TypeOf(e.Res)},
			{Name: fmt.Sprintf("Pad%d", i), Type: reflect.TypeOf(0)},
		})
		v := reflect.New(typ).Elem()
		v.Field(0).SetString(e.Key)
		v.Field(1).Set(reflect.ValueOf(e.Res))
		v.Field(2).SetInt(int64(i + 1))
		return gobEncode(t, v.Interface())
	}
	for i := len(records); i < maxSections; i++ {
		records = append(records, padded(i))
	}
	for i, data := range records {
		for round := 0; round < 2; round++ { // fresh, then primed
			sameAsFresh(t, data)
		}
		if idle, _ := idleDecoders(data[:sectionLen(data)]); idle != 1 {
			t.Fatalf("record %d: %d primed decoders for its section, want 1", i, idle)
		}
	}
	extra := padded(maxSections)
	for round := 0; round < 2; round++ {
		sameAsFresh(t, extra)
	}
	if _, kept := idleDecoders(extra[:sectionLen(extra)]); kept {
		t.Fatalf("a section past the cap of %d was kept", maxSections)
	}
	if idle, _ := idleDecoders(records[0][:sectionLen(records[0])]); idle != 1 {
		t.Fatal("the first section lost its primed decoder")
	}
}

// BenchmarkEntryCodec times one pulpino-proxy record through each side
// of the codec, on primed streams (the pool is warm after one call).
func BenchmarkEntryCodec(b *testing.B) {
	data := pulpinoRecord(b)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeEntry(pulpinoEntry()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeEntry(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
