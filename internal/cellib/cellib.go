// Package cellib models a standard-cell library for the simulated
// implementation flow: cell classes, discrete drive strengths, a linear
// (NLDM-like) delay model, and wire parasitics.
//
// The library is the lowest substrate of the reproduction: synthesis,
// sizing, timing and power all consume it. Numbers are loosely calibrated
// to a foundry 14nm-class enablement (the paper's PULPino testcase
// technology) but only relative behaviour matters for the experiments.
package cellib

import (
	"fmt"
	"sort"
)

// Class enumerates the logical function families in the library.
type Class int

// Cell classes. Combinational classes precede sequential ones.
const (
	Inverter Class = iota
	Buffer
	Nand2
	Nor2
	Nand3
	Aoi21
	Oai21
	Xor2
	Mux2
	DFF
	ClockBuffer
	numClasses
)

var classNames = [...]string{
	Inverter:    "INV",
	Buffer:      "BUF",
	Nand2:       "ND2",
	Nor2:        "NR2",
	Nand3:       "ND3",
	Aoi21:       "AOI21",
	Oai21:       "OAI21",
	Xor2:        "XOR2",
	Mux2:        "MUX2",
	DFF:         "DFF",
	ClockBuffer: "CKBUF",
}

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// NumInputs reports the number of data inputs for the class.
func (c Class) NumInputs() int {
	switch c {
	case Inverter, Buffer, ClockBuffer, DFF:
		return 1
	case Nand2, Nor2, Xor2:
		return 2
	case Nand3, Aoi21, Oai21, Mux2:
		return 3
	default:
		return 1
	}
}

// Sequential reports whether the class is a state element.
func (c Class) Sequential() bool { return c == DFF }

// Cell is one library cell: a class at a discrete drive strength.
// The delay model is linear in output load:
//
//	delay(ps) = Intrinsic + Resistance*load(fF)
//
// which is the standard first-order approximation of an NLDM table.
type Cell struct {
	Name      string  // e.g. "ND2_X2" or "ND2_X2_HVT"
	Class     Class   // logical function
	Drive     int     // drive strength (1, 2, 4, 8, 16)
	VT        VT      // threshold-voltage flavor (SVT default)
	Area      float64 // placement area, um^2
	InputCap  float64 // capacitance per input pin, fF
	Intrinsic float64 // intrinsic delay, ps
	Resist    float64 // effective output resistance, ps/fF
	Leakage   float64 // leakage power, nW
	SetupTime float64 // for sequential cells, ps
	ClkToQ    float64 // for sequential cells, ps
}

// Delay returns the pin-to-pin delay in ps for the given output load in fF.
func (c *Cell) Delay(loadFF float64) float64 {
	return c.Intrinsic + c.Resist*loadFF
}

// Slew returns the output transition time in ps for the given load. The
// model ties slew to the same RC product as delay.
func (c *Cell) Slew(loadFF float64) float64 {
	return 0.7*c.Intrinsic + 1.4*c.Resist*loadFF
}

// MaxLoad returns the largest output load (fF) the cell can drive without
// an electrical (max-transition) violation.
func (c Cell) MaxLoad() float64 {
	return 40.0 * float64(c.Drive)
}

// VT is a threshold-voltage flavor: the speed/leakage tradeoff behind
// the "VT-swapping operations" of the paper's Sec. 3.2. SVT is the
// default; HVT is slower but leaks far less; LVT is faster and leaky.
type VT int

// Threshold flavors.
const (
	SVT VT = iota
	HVT
	LVT
)

func (v VT) String() string {
	switch v {
	case HVT:
		return "HVT"
	case LVT:
		return "LVT"
	default:
		return "SVT"
	}
}

// Wire holds per-micron wire parasitics for the routing stack.
type Wire struct {
	ResPerUm float64 // ps/fF-normalized resistance per um
	CapPerUm float64 // fF per um
}

// Delay returns the Elmore delay contribution (ps) of a wire of the given
// length driven by a cell with output resistance r (ps/fF).
func (w Wire) Delay(lengthUm, driverResist float64) float64 {
	c := w.CapPerUm * lengthUm
	r := w.ResPerUm * lengthUm
	return driverResist*c + 0.5*r*c
}

// Library is an immutable set of cells plus technology parameters.
type Library struct {
	Name     string
	Wire     Wire
	RowPitch float64 // placement row height, um

	cells   []Cell
	byClass [numClasses][]int // indices into cells, sorted by Drive
	byName  map[string]int
}

// New assembles a library from a cell list. Cells of each class are kept
// sorted by ascending drive strength. A cell of no known class is an error.
func New(name string, wire Wire, rowPitch float64, cells []Cell) (*Library, error) {
	lib := &Library{
		Name:     name,
		Wire:     wire,
		RowPitch: rowPitch,
		cells:    append([]Cell(nil), cells...),
		byName:   make(map[string]int, len(cells)),
	}
	for i, c := range lib.cells {
		if c.Class < 0 || c.Class >= numClasses {
			return nil, fmt.Errorf("cellib: cell %q has unknown class %d", c.Name, c.Class)
		}
		lib.byClass[c.Class] = append(lib.byClass[c.Class], i)
		lib.byName[c.Name] = i
	}
	for cl := Class(0); cl < numClasses; cl++ {
		idx := lib.byClass[cl]
		sort.Slice(idx, func(a, b int) bool {
			ca, cb := lib.cells[idx[a]], lib.cells[idx[b]]
			if ca.Drive != cb.Drive {
				return ca.Drive < cb.Drive
			}
			return ca.VT < cb.VT
		})
	}
	return lib, nil
}

// must unwraps New for the built-in libraries, whose classes are known.
func must(lib *Library, err error) *Library {
	if err != nil {
		panic(err)
	}
	return lib
}

// Cells returns all cells in the library.
func (l *Library) Cells() []Cell { return l.cells }

// ByName looks up a cell by name.
func (l *Library) ByName(name string) (Cell, bool) {
	i, ok := l.byName[name]
	if !ok {
		return Cell{}, false
	}
	return l.cells[i], true
}

// Variants returns the cells of a class in ascending drive order.
func (l *Library) Variants(c Class) []Cell {
	idx := l.byClass[c]
	out := make([]Cell, len(idx))
	for i, j := range idx {
		out[i] = l.cells[j]
	}
	return out
}

// Smallest returns the minimum-drive cell of a class.
func (l *Library) Smallest(c Class) Cell {
	idx := l.byClass[c]
	if len(idx) == 0 {
		panic(fmt.Sprintf("cellib: class %v has no variants", c))
	}
	return l.cells[idx[0]]
}

// Largest returns the maximum-drive cell of a class.
func (l *Library) Largest(c Class) Cell {
	idx := l.byClass[c]
	if len(idx) == 0 {
		panic(fmt.Sprintf("cellib: class %v has no variants", c))
	}
	return l.cells[idx[len(idx)-1]]
}

// Upsize returns the next-larger variant of the cell (same VT flavor)
// and true, or the cell itself and false if it is already the largest.
func (l *Library) Upsize(c Cell) (Cell, bool) {
	if up := l.Larger(&c); up != nil {
		return *up, true
	}
	return c, false
}

// Larger is Upsize without the 96-byte copies: the next-larger variant
// as a pointer into the library's own table, which the caller must not
// write through, or nil if the cell is already the largest.
func (l *Library) Larger(c *Cell) *Cell {
	idx := l.byClass[c.Class]
	for pos, j := range idx {
		if l.cells[j].Drive == c.Drive && l.cells[j].VT == c.VT {
			for _, k := range idx[pos+1:] {
				if l.cells[k].VT == c.VT {
					return &l.cells[k]
				}
			}
			return nil
		}
	}
	return nil
}

// Downsize returns the next-smaller variant of the cell (same VT
// flavor) and true, or the cell itself and false if it is already the
// smallest.
func (l *Library) Downsize(c Cell) (Cell, bool) {
	idx := l.byClass[c.Class]
	for pos, j := range idx {
		if l.cells[j].Drive == c.Drive && l.cells[j].VT == c.VT {
			for back := pos - 1; back >= 0; back-- {
				if l.cells[idx[back]].VT == c.VT {
					return l.cells[idx[back]], true
				}
			}
			return c, false
		}
	}
	return c, false
}

// WithVT returns the same class/drive cell in another threshold flavor,
// if the library has it.
func (l *Library) WithVT(c Cell, vt VT) (Cell, bool) {
	for _, j := range l.byClass[c.Class] {
		if l.cells[j].Drive == c.Drive && l.cells[j].VT == vt {
			return l.cells[j], true
		}
	}
	return c, false
}

// Default14nm constructs the default library used throughout the
// reproduction: 11 classes at drive strengths X1..X16 with first-order
// scaling laws (area and input cap grow with drive; resistance shrinks).
func Default14nm() *Library {
	type proto struct {
		class     Class
		area      float64 // X1 area um^2
		inCap     float64 // X1 input cap fF
		intrinsic float64 // ps
		resist    float64 // X1 ps/fF
		leak      float64 // X1 nW
	}
	protos := []proto{
		{Inverter, 0.2, 0.8, 4, 6.0, 1.0},
		{Buffer, 0.35, 0.8, 9, 5.5, 1.6},
		{Nand2, 0.3, 1.0, 7, 7.0, 1.8},
		{Nor2, 0.3, 1.0, 8, 8.0, 1.8},
		{Nand3, 0.42, 1.1, 9, 8.5, 2.4},
		{Aoi21, 0.45, 1.1, 10, 9.0, 2.6},
		{Oai21, 0.45, 1.1, 10, 9.0, 2.6},
		{Xor2, 0.6, 1.4, 12, 9.5, 3.2},
		{Mux2, 0.55, 1.2, 11, 9.0, 3.0},
		{DFF, 1.3, 1.0, 0, 7.0, 6.0},
		{ClockBuffer, 0.5, 1.1, 8, 4.5, 2.2},
	}
	drives := []int{1, 2, 4, 8, 16}
	var cells []Cell
	for _, p := range protos {
		for _, d := range drives {
			f := float64(d)
			c := Cell{
				Name:      fmt.Sprintf("%s_X%d", p.class, d),
				Class:     p.class,
				Drive:     d,
				Area:      p.area * (0.55 + 0.45*f),
				InputCap:  p.inCap * (0.6 + 0.4*f),
				Intrinsic: p.intrinsic,
				Resist:    p.resist / f,
				Leakage:   p.leak * f,
			}
			if p.class == DFF {
				c.SetupTime = 18
				c.ClkToQ = 35
			}
			cells = append(cells, c)
		}
	}
	return must(New("sim14", Wire{ResPerUm: 0.08, CapPerUm: 0.18}, 0.6, cells))
}
