package netlist

import (
	"fmt"

	"repro/internal/cellib"
)

// AddInstance appends a new unconnected instance of the given cell and
// returns its ID. The caller must connect its pins and relevel.
func (n *Netlist) AddInstance(cell cellib.Cell, name string) int {
	id := len(n.Insts)
	if name == "" {
		name = fmt.Sprintf("u%d", id)
	}
	n.Insts = append(n.Insts, Instance{ID: id, Name: name, Cell: cell})
	fanin := make([]int, cell.Class.NumInputs())
	for i := range fanin {
		fanin[i] = -1
	}
	n.FaninNet = append(n.FaninNet, fanin)
	n.FanoutNet = append(n.FanoutNet, -1)
	return id
}

// AddNet appends a new net driven by the given instance (or -1) and
// returns its ID.
func (n *Netlist) AddNet(driver int, name string) int {
	id := len(n.Nets)
	if name == "" {
		name = fmt.Sprintf("n%d", id)
	}
	n.Nets = append(n.Nets, Net{ID: id, Name: name, Driver: driver})
	if driver >= 0 {
		n.FanoutNet[driver] = id
	}
	return id
}

// Connect attaches a net to an instance input pin. The pin must be
// currently unconnected or connected to another net (which is detached).
func (n *Netlist) Connect(netID, inst, pin int) {
	if old := n.FaninNet[inst][pin]; old >= 0 {
		n.detachSink(old, inst, pin)
	}
	n.Nets[netID].Sinks = append(n.Nets[netID].Sinks, PinRef{Inst: inst, Pin: pin})
	n.FaninNet[inst][pin] = netID
}

func (n *Netlist) detachSink(netID, inst, pin int) {
	sinks := n.Nets[netID].Sinks
	for i, s := range sinks {
		if s.Inst == inst && s.Pin == pin {
			n.Nets[netID].Sinks = append(sinks[:i], sinks[i+1:]...)
			break
		}
	}
	n.FaninNet[inst][pin] = -1
}

// InsertBuffer splits a net: the listed sink pins are moved behind a new
// buffer instance placed at the net's load centroid. Returns the buffer
// instance ID. The caller should Relevel afterwards.
func (n *Netlist) InsertBuffer(netID int, sinks []PinRef, buf cellib.Cell) int {
	id := n.AddInstance(buf, "")
	// Place the buffer at the centroid of the moved sinks.
	var cx, cy float64
	for _, s := range sinks {
		cx += n.Insts[s.Inst].X
		cy += n.Insts[s.Inst].Y
	}
	if len(sinks) > 0 {
		n.Insts[id].X = cx / float64(len(sinks))
		n.Insts[id].Y = cy / float64(len(sinks))
	}
	newNet := n.AddNet(id, "")
	for _, s := range sinks {
		n.detachSink(netID, s.Inst, s.Pin)
		n.Connect(newNet, s.Inst, s.Pin)
	}
	n.Connect(netID, id, 0)
	return id
}

// Relevel recomputes logic levels by longest path from sources (registers
// and primary inputs are level 0). It must be called after structural
// edits. Returns an error if the combinational graph has a cycle.
func (n *Netlist) Relevel() error {
	const unset = -1
	// The levels, indegrees and queue share one int32 slab.
	slab := make([]int32, 3*len(n.Insts))
	level, indeg, queue := slab[:len(n.Insts)], slab[len(n.Insts):2*len(n.Insts)], slab[2*len(n.Insts):2*len(n.Insts)]
	for i := range level {
		level[i] = unset
	}
	// Kahn-style: indegree over combinational fanins with a driver that
	// is combinational.
	for i := range n.Insts {
		if n.Insts[i].Cell.Class.Sequential() {
			level[i] = 0
			continue
		}
		for _, netID := range n.FaninNet[i] {
			if netID < 0 || n.Nets[netID].IsClock {
				continue
			}
			d := n.Nets[netID].Driver
			if d >= 0 && !n.Insts[d].Cell.Class.Sequential() {
				indeg[i]++
			}
		}
	}
	for i := range n.Insts {
		if level[i] == 0 {
			continue // registers
		}
		if indeg[i] == 0 {
			level[i] = 1
			queue = append(queue, int32(i))
		}
	}
	processed := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		processed++
		out := n.FanoutNet[id]
		if out < 0 {
			continue
		}
		for _, s := range n.Nets[out].Sinks {
			if n.Insts[s.Inst].Cell.Class.Sequential() {
				continue
			}
			if l := level[id] + 1; l > level[s.Inst] {
				level[s.Inst] = l
			}
			indeg[s.Inst]--
			if indeg[s.Inst] == 0 {
				queue = append(queue, int32(s.Inst))
			}
		}
	}
	for i := range n.Insts {
		if !n.Insts[i].Cell.Class.Sequential() && level[i] == unset && indeg[i] > 0 {
			return fmt.Errorf("netlist: combinational cycle involving inst %d", i)
		}
	}
	for i := range n.Insts {
		if level[i] == unset {
			level[i] = 1
		}
		n.Insts[i].Level = int(level[i])
	}
	return nil
}
