package cellib

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// FuzzLibraryGobDecode feeds arbitrary bytes to Library.GobDecode, which
// every netlist-bearing record runs on a read. It returns a library or an
// error and never panics, and a library it returns re-encodes to bytes that
// decode to a library encoding to the same bytes.
func FuzzLibraryGobDecode(f *testing.F) {
	for _, lib := range []*Library{Default14nm(), Default14nmMultiVT()} {
		b, err := lib.GobEncode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	for _, w := range []libraryWire{
		{Name: "empty"},
		{Name: "bad class", Cells: []Cell{{Name: "X", Class: numClasses}}},
		{Name: "negative class", Cells: []Cell{{Name: "X", Class: -1}}},
		{Name: "duplicate", Cells: []Cell{{Name: "X", Class: DFF}, {Name: "X", Class: DFF, Drive: 2}}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var l Library
		if err := l.GobDecode(data); err != nil {
			return
		}
		enc, err := l.GobEncode()
		if err != nil {
			t.Fatalf("a decoded library does not re-encode: %v", err)
		}
		var again Library
		if err := again.GobDecode(enc); err != nil {
			t.Fatalf("a re-encoded library does not decode: %v", err)
		}
		if enc2, err := again.GobEncode(); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("the round trip changed the encoding (%v)", err)
		}
	})
}
