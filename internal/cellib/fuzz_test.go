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
	def, err := Default14nm().GobEncode()
	if err != nil {
		f.Fatal(err)
	}
	var multiVT bytes.Buffer
	if err := gob.NewEncoder(&multiVT).Encode(libraryWire{Name: "multi-VT", Wire: Wire{ResPerUm: 0.08, CapPerUm: 0.18}, RowPitch: 0.6, Cells: []Cell{
		{Name: "ND2_X1", Class: Nand2, Drive: 1, Area: 0.3, InputCap: 1, Intrinsic: 7, Resist: 7, Leakage: 1.8},
		{Name: "ND2_X1_HVT", Class: Nand2, Drive: 1, VT: HVT, Area: 0.3, InputCap: 1, Intrinsic: 8.75, Resist: 8.75, Leakage: 0.5},
		{Name: "ND2_X1_LVT", Class: Nand2, Drive: 1, VT: LVT, Area: 0.3, InputCap: 1, Intrinsic: 6.16, Resist: 6.16, Leakage: 5.4},
		{Name: "DFF_X1_HVT", Class: DFF, Drive: 1, VT: HVT, Area: 1, InputCap: 1, Intrinsic: 20, Resist: 8, Leakage: 1, SetupTime: 25, ClkToQ: 40},
	}}); err != nil {
		f.Fatal(err)
	}
	for _, b := range [][]byte{def, multiVT.Bytes()} {
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
