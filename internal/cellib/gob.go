package cellib

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// libraryWire is the serialized form of a Library: exactly the
// constructor inputs. The derived indices (byClass, byName) are rebuilt
// on decode, so a decoded library is fully functional and structurally
// identical to one assembled by New.
type libraryWire struct {
	Name     string
	Wire     Wire
	RowPitch float64
	Cells    []Cell
}

// GobEncode implements gob.GobEncoder, making netlists (and therefore
// journaled flow results) serializable even though the library keeps
// unexported lookup indices.
func (l *Library) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	w := libraryWire{Name: l.Name, Wire: l.Wire, RowPitch: l.RowPitch, Cells: l.cells}
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, fmt.Errorf("cellib: encode library: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder by rebuilding the library through
// New, restoring the sorted per-class and by-name indices.
func (l *Library) GobDecode(data []byte) error {
	var w libraryWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("cellib: decode library: %w", err)
	}
	lib, err := New(w.Name, w.Wire, w.RowPitch, w.Cells)
	if err != nil {
		return fmt.Errorf("cellib: decode library: %w", err)
	}
	*l = *lib
	return nil
}
