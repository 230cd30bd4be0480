package place

import "testing"

// extremeSeeds is FuzzNetExtremes' seed corpus, in runExtremes' format:
// cols-1, rows-1, cells-1, nets, then per net a header (pin count, +0x80
// for a clock net) and its pin instances, then moves as (inst, slot, flag)
// with an even flag committing the move.
var extremeSeeds = [][]byte{
	// One row of 8: net 0's only pin in column 0 is instance 0, twice; a
	// 1-pin and a 2-pin net. Moves: the doubled pin leaves the edge, a swap
	// with an occupant sharing net 0, an empty target, the mover's own slot.
	{7, 0, 3, 3, 4, 0, 1, 0, 2, 1, 3, 2, 1, 3, 0, 6, 0, 1, 2, 0, 3, 7, 1, 2, 1, 0, 0, 0, 0, 3, 3, 1},
	// One column of 8: every net has all its pins in one column, so every
	// mover is on both column edges; instances 1 and 3 pin net 1 twice.
	{0, 7, 4, 2, 3, 0, 2, 4, 5, 1, 1, 3, 3, 0, 0, 7, 0, 4, 0, 0, 2, 6, 0, 1, 3, 0, 3, 5, 1, 0, 1, 0},
	// 4 x 4 with a clock net, a pinless net and nets sharing instances 5
	// and 9; swaps inside one net, along one row, and back.
	{3, 3, 9, 5, 0x83, 0, 1, 2, 0, 2, 5, 9, 4, 5, 6, 7, 8, 3, 9, 5, 0, 5, 9, 0, 9, 15, 0, 5, 12, 0, 6, 7, 0, 0, 13, 1, 8, 4, 0, 5, 5, 0},
	// A single slot: the only proposal is the mover's own slot.
	{0, 0, 0, 1, 2, 0, 0, 0, 0, 0},
	{},
}

// runExtremes decodes one fuzz input into a small grid, nets with repeated
// pins and a move sequence, and checks the evaluator on it: every proposal's
// delta against refDelta, and after every commit every cached record
// against a fresh scan. The proposal shapes it meets are noted in shapes.
func runExtremes(t testing.TB, data []byte, shapes proposalShapes) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	cols, rows := 1+next()%8, 1+next()%8
	slots := make([]int, 1+next()%(cols*rows))
	for i := range slots {
		slots[i] = i
	}
	nets := make([]rawNet, next()%12)
	for i := range nets {
		h := next()
		nets[i].clock = h&0x80 != 0
		for k := h % 6; k > 0; k-- {
			nets[i].pins = append(nets[i].pins, next()%len(slots))
		}
	}
	p := rawPlacer(cols, rows, slots, nets)
	checkKernelState(t, p)
	for len(data) >= 3 {
		inst, slot, flag := next()%len(slots), next()%(cols*rows), next()
		shapes.note(p, inst, slot)
		checkDelta(t, p, inst, slot)
		if flag&1 == 0 && slot != p.g.slotOf[inst] {
			p.commit(inst, slot)
			checkKernelState(t, p)
		}
	}
}

// FuzzNetExtremes: on any small grid (1 x N and N x 1 included), any nets
// and any move sequence, the cached extremes and spans equal a fresh scan
// after every move and delta equals the change measured across a real swap.
func FuzzNetExtremes(f *testing.F) {
	for _, seed := range extremeSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runExtremes(t, data, proposalShapes{}) })
}

// TestExtremeSeedsCoverShapes: the seed corpus alone meets every proposal
// shape the differential test names.
func TestExtremeSeedsCoverShapes(t *testing.T) {
	shapes := proposalShapes{}
	for _, seed := range extremeSeeds {
		runExtremes(t, seed, shapes)
	}
	if missing := shapes.missing(); missing != "" {
		t.Fatalf("seed corpus does not exercise: %s (%v)", missing, shapes)
	}
}
