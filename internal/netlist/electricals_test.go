package netlist

import (
	"math"
	"testing"

	"repro/internal/cellib"
)

// netLoadRef is NetLoad as it stood before Electricals, kept as the
// reference: the caps in one walk of the sinks, the wire from a second walk
// inside HPWL.
func netLoadRef(n *Netlist, netID int) float64 {
	net := &n.Nets[netID]
	load := net.ExternalCap
	for _, s := range net.Sinks {
		load += n.Insts[s.Inst].Cell.InputCap
	}
	load += n.Lib.Wire.CapPerUm * n.HPWL(netID)
	return load
}

// checkElectricals holds Electricals to (netLoadRef, HPWL) on every net of
// n, bit for bit, and NetLoad to its first result.
func checkElectricals(t testing.TB, n *Netlist) {
	t.Helper()
	for i := range n.Nets {
		load, length := n.Electricals(i)
		wantLoad, wantLength := netLoadRef(n, i), n.HPWL(i)
		if math.Float64bits(load) != math.Float64bits(wantLoad) || math.Float64bits(length) != math.Float64bits(wantLength) {
			t.Fatalf("net %d (%+v): Electricals = (%v, %v), NetLoad and HPWL walked apart give (%v, %v)",
				i, n.Nets[i], load, length, wantLoad, wantLength)
		}
		if got := n.NetLoad(i); math.Float64bits(got) != math.Float64bits(load) {
			t.Fatalf("net %d: NetLoad %v is not Electricals' first result %v", i, got, load)
		}
	}
}

// electricalSeeds is FuzzElectricals' seed corpus, in decodeElectricals'
// format: instances-1, then per instance (class and drive, x, y as two
// bytes each), then per net a header (bit 7 clock, bit 6 driverless, bits
// 3-5 the external cap, bits 0-2 the sink count), the driver unless
// driverless, and the sinks.
var electricalSeeds = [][]byte{
	// Four cells. Net by net: driver and three sinks; driverless with two
	// sinks (the box starts at the first sink, which the walk meets again);
	// sinkless with a driver; driverless and sinkless with an external cap;
	// a single sink and no driver; a clock net; one instance on every pin.
	{3, 0x00, 1, 0, 2, 0, 0x13, 9, 0, 3, 0, 0x25, 0xff, 0xf0, 0, 7, 0x31, 0x80, 0, 0x80, 0,
		0x0b, 0, 1, 2, 3, 0x42, 3, 1, 0x00, 2, 0x58, 0x41, 2, 0x83, 0, 1, 2, 0x03, 1, 1, 1, 1},
	// One cell at the origin, on both ends of its own net.
	{0, 0x12, 0, 0, 0, 0, 0x01, 0, 0},
	// Coordinates far apart and negative zero.
	{1, 0x04, 0x7f, 0xff, 0x80, 0x01, 0x44, 0x80, 0x00, 0x80, 0x00, 0x3a, 0, 1, 0, 0x4a, 1, 0},
	{},
}

// decodeElectricals decodes one fuzz input into a few placed cells and
// nets of any shape.
func decodeElectricals(data []byte) *Netlist {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	coord := func() float64 {
		raw := int16(next()<<8 | next())
		if raw == math.MinInt16 {
			return math.Copysign(0, -1)
		}
		return float64(raw) / 16
	}
	lib := cellib.Default14nm()
	classes := []cellib.Class{cellib.Inverter, cellib.Nand2, cellib.Nand3, cellib.Xor2, cellib.DFF, cellib.Buffer}
	n := &Netlist{Lib: lib, ClockNet: -1}
	for i, count := 0, 1+next()%12; i < count; i++ {
		h := next()
		cell := lib.Smallest(classes[h&0xf%len(classes)])
		for k := h >> 4 % 5; k > 0; k-- {
			cell, _ = lib.Upsize(cell)
		}
		id := n.AddInstance(cell, "")
		n.Insts[id].X, n.Insts[id].Y = coord(), coord()
	}
	// Pins are not kept consistent with FaninNet: Electricals reads a
	// net's own Driver and Sinks and nothing else.
	for len(data) > 0 {
		h := next()
		net := Net{ID: len(n.Nets), Driver: -1, IsClock: h&0x80 != 0, ExternalCap: float64(h>>3&7) * 0.75}
		if h&0x40 == 0 {
			net.Driver = next() % len(n.Insts)
		}
		for k := h & 7; k > 0; k-- {
			net.Sinks = append(net.Sinks, PinRef{Inst: next() % len(n.Insts)})
		}
		n.Nets = append(n.Nets, net)
	}
	return n
}

// FuzzElectricals: on any placement and any net — driverless, sinkless,
// single-pin, clock, one instance on several pins — one walk of the pins
// gives the bits that NetLoad and HPWL gave walking them apart.
func FuzzElectricals(f *testing.F) {
	for _, seed := range electricalSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkElectricals(t, decodeElectricals(data)) })
}

// TestElectricalSeedsCoverShapes: the seed corpus alone holds every net
// shape FuzzElectricals names.
func TestElectricalSeedsCoverShapes(t *testing.T) {
	shapes := map[string]bool{}
	for _, seed := range electricalSeeds {
		n := decodeElectricals(seed)
		checkElectricals(t, n)
		for i := range n.Nets {
			net := &n.Nets[i]
			pins := map[int]bool{}
			for _, s := range net.Sinks {
				shapes["an instance on several pins"] = shapes["an instance on several pins"] || pins[s.Inst] || s.Inst == net.Driver
				pins[s.Inst] = true
			}
			shapes["driverless"] = shapes["driverless"] || net.Driver < 0 && len(net.Sinks) > 1
			shapes["sinkless"] = shapes["sinkless"] || net.Driver >= 0 && len(net.Sinks) == 0
			shapes["pinless"] = shapes["pinless"] || net.Driver < 0 && len(net.Sinks) == 0
			shapes["single sink"] = shapes["single sink"] || net.Driver < 0 && len(net.Sinks) == 1
			shapes["clock"] = shapes["clock"] || net.IsClock
			shapes["external cap"] = shapes["external cap"] || net.ExternalCap > 0
		}
	}
	for _, shape := range []string{"an instance on several pins", "driverless", "sinkless", "pinless", "single sink", "clock", "external cap"} {
		if !shapes[shape] {
			t.Errorf("seed corpus has no %s net", shape)
		}
	}
}

// TestElectricalsMatchesNetLoadAndHPWL: the same on every net of the
// generated designs, as generated and after a move.
func TestElectricalsMatchesNetLoadAndHPWL(t *testing.T) {
	for _, n := range genAll(t) {
		checkElectricals(t, n)
		for i := range n.Insts {
			n.Insts[i].X, n.Insts[i].Y = n.Insts[i].Y*1.7-3, n.Insts[i].X/3
		}
		checkElectricals(t, n)
	}
}
