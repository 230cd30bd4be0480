// Command goldenfence is the fence around a deliberate re-recording of
// testdata/golden_qor.txt or testdata/figs_small.txt. It compares the
// golden file before and after and fails unless the difference is the one
// the change was allowed to make; what it prints goes into CHANGES.md.
//
//	goldenfence -figs before.txt after.txt [NAME=reason ...]
//
// is the rule for figs_small.txt, which holds every artefact's report
// followed by one blank line, in repro.Artifacts order. It compares the
// two files artefact by artefact and prints each moved block's diff. It
// fails unless every moved block is named with a reason, and every named
// block moved: a re-record says which reports it meant to move and why.
//
//	git show HEAD:testdata/figs_small.txt > /tmp/figs_before.txt
//	go test -run TestArtifactsGolden -update . && go run ./scripts/goldenfence -figs /tmp/figs_before.txt testdata/figs_small.txt fig6b='the anneal starts elsewhere'
//
//	goldenfence -columns before.txt after.txt
//
// is for a commit that only adds columns: the same rows, and every field a
// row had before unchanged.
//
//	goldenfence before.txt after.txt
//
// is the fence of the re-record that let the global placement step's
// intermediate spreads stop at a leaf of slots and fill its rows. It fails
// unless
//
//  1. both files hold the same rows, in the same order, with the same
//     columns;
//  2. no synth/* row moved and every init= is unchanged (the scatter still
//     draws from math/rand and is the global step's start);
//  3. every place/*/w0/* row and every flow/*/serial row has HPWL <= 1.03x
//     the row it replaces;
//  4. area= is unchanged on every flow/* row (placement does not feed
//     synthesis), and the mean WNS of the serial flow rows is no worse than
//     before.
//
// Printed, not bounded: per-row WNS and met (at equal HPWL a row
// moves a few hundred ps between two valid placements — the paper's Fig. 3
// noise, not a signal). Each re-record rewrites these rules for its own
// change; git keeps the earlier ones.
//
//	git show HEAD:testdata/golden_qor.txt > /tmp/before.txt
//	go test -run TestGoldenQoR -update . && go run ./scripts/goldenfence /tmp/before.txt testdata/golden_qor.txt
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro"
)

// table is a golden file: key -> the rest of the row, and the keys in
// file order.
type table struct {
	keys []string
	row  map[string]string
}

func readTable(path string) (table, error) {
	f, err := os.Open(path)
	if err != nil {
		return table{}, err
	}
	defer f.Close()
	t := table{row: map[string]string{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, v, _ := strings.Cut(sc.Text(), " ")
		t.keys, t.row[key] = append(t.keys, key), v
	}
	return t, sc.Err()
}

// field returns the value of name= in a row.
func field(row, name string) string {
	for _, f := range strings.Fields(row) {
		if v, ok := strings.CutPrefix(f, name+"="); ok {
			return v
		}
	}
	return ""
}

// names lists a row's field names in order.
func names(row string) []string {
	var out []string
	for _, f := range strings.Fields(row) {
		name, _, _ := strings.Cut(f, "=")
		out = append(out, name)
	}
	return out
}

func float(hex string) float64 {
	bits, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return math.NaN()
	}
	return math.Float64frombits(bits)
}

// hpwl is a row's placed wirelength: hpwl= on a place row, the first
// component of place= on a flow row.
func hpwl(row string) float64 {
	if v := field(row, "hpwl"); v != "" {
		return float(v)
	}
	v, _, _ := strings.Cut(field(row, "place"), "/")
	return float(v)
}

// maxHPWL is rule 3's bound on a row's HPWL, relative to the row it
// replaces.
const maxHPWL = 1.03

// fence checks one comparison and collects what failed.
type fence struct {
	out    io.Writer
	failed []string
}

func (f *fence) fail(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	f.failed = append(f.failed, msg)
	fmt.Fprintln(f.out, "FAIL "+msg)
}

// columns is the -columns mode.
func (f *fence) columns(before, after table) {
	if !slices.Equal(before.keys, after.keys) {
		f.fail("the rows differ: %d before, %d after", len(before.keys), len(after.keys))
	}
	added, order := map[string]int{}, []string(nil)
	for _, key := range before.keys {
		was, now := before.row[key], after.row[key]
		for _, name := range names(was) {
			if field(now, name) != field(was, name) {
				f.fail("%s: %s=%s became %q", key, name, field(was, name), field(now, name))
			}
		}
		for _, name := range names(now) {
			if field(was, name) == "" {
				if added[name]++; added[name] == 1 {
					order = append(order, name)
				}
			}
		}
	}
	for _, name := range order {
		fmt.Fprintf(f.out, "column %s= added to %d rows\n", name, added[name])
	}
	fmt.Fprintf(f.out, "%d rows, every pre-existing field unchanged: %v\n", len(before.keys), len(f.failed) == 0)
}

// rerecord is the default mode's fence.
func (f *fence) rerecord(before, after table) {
	if !slices.Equal(before.keys, after.keys) {
		f.fail("rule 1: %d rows before, %d after, or in another order", len(before.keys), len(after.keys))
		return
	}
	for _, key := range before.keys {
		if was, now := names(before.row[key]), names(after.row[key]); !slices.Equal(was, now) {
			f.fail("rule 1: %s has columns %v, had %v", key, now, was)
		}
	}
	fmt.Fprintf(f.out, "%d rows, the same before and after\n\n", len(before.keys))

	// Rule 2: synthesis and the scatter did not move.
	for _, key := range before.keys {
		was, now := before.row[key], after.row[key]
		if strings.HasPrefix(key, "synth/") && was != now {
			f.fail("rule 2: %s moved", key)
		}
		if field(was, "init") != field(now, "init") {
			f.fail("rule 2: %s: init=%s became %s", key, field(was, "init"), field(now, "init"))
		}
	}

	// Rule 3 on the place rows.
	fmt.Fprintln(f.out, "| place row | HPWL before | HPWL after | ratio |")
	fmt.Fprintln(f.out, "|---|---|---|---|")
	for _, key := range before.keys {
		if !strings.HasPrefix(key, "place/") {
			continue
		}
		was, now := hpwl(before.row[key]), hpwl(after.row[key])
		if strings.Contains(key, "/w0/") && !(now <= maxHPWL*was) {
			f.fail("rule 3: %s: HPWL %.0f is %.4fx the row it replaces (%.0f)", key, now, now/was, was)
		}
		fmt.Fprintf(f.out, "| %s | %.0f | %.0f | %.3f |\n", key, was, now, now/was)
	}

	// Rules 3 and 4 on the flow rows.
	fmt.Fprintln(f.out, "\n| flow row | HPWL before | HPWL after | ratio | WNS ps before | after | met before | after |")
	fmt.Fprintln(f.out, "|---|---|---|---|---|---|---|---|")
	var wnsWas, wnsNow, serialRows float64
	for _, key := range before.keys {
		if !strings.HasPrefix(key, "flow/") {
			continue
		}
		rowWas, rowNow := before.row[key], after.row[key]
		if field(rowWas, "area") != field(rowNow, "area") {
			f.fail("rule 4: %s: area=%s became %s", key, field(rowWas, "area"), field(rowNow, "area"))
		}
		was, now := hpwl(rowWas), hpwl(rowNow)
		if strings.HasSuffix(key, "/serial") {
			wnsWas += float(field(rowWas, "wns"))
			wnsNow += float(field(rowNow, "wns"))
			serialRows++
			if !(now <= maxHPWL*was) {
				f.fail("rule 3: %s: HPWL %.0f is %.4fx the row it replaces (%.0f)", key, now, now/was, was)
			}
		}
		fmt.Fprintf(f.out, "| %s | %.0f | %.0f | %.3f | %.0f | %.0f | %s | %s |\n", key, was, now, now/was,
			float(field(rowWas, "wns")), float(field(rowNow, "wns")), field(rowWas, "met"), field(rowNow, "met"))
	}
	wnsWas, wnsNow = wnsWas/serialRows, wnsNow/serialRows
	fmt.Fprintf(f.out, "\nmean WNS ps of the serial rows: %.0f -> %.0f\n", wnsWas, wnsNow)
	if !(wnsNow >= wnsWas) {
		f.fail("rule 4: mean WNS of the serial rows fell from %.0f to %.0f ps", wnsWas, wnsNow)
	}
}

// readBlocks splits a figs file into its artefacts' reports: runs of lines
// that end at a blank line. A report that printed a blank line of its own
// shows up as one block too many.
func readBlocks(path string) ([][]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var blocks [][]string
	var block []string
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line = strings.TrimSuffix(line, "\n"); line != "" {
			block = append(block, line)
		} else if block != nil {
			blocks, block = append(blocks, block), nil
		}
	}
	if block != nil {
		blocks = append(blocks, block)
	}
	return blocks, nil
}

// figs is the -figs mode: names are the artefacts in file order, and
// reasons says why each block the re-record meant to move moved.
func (f *fence) figs(before, after [][]string, names []string, reasons map[string]string) {
	for _, file := range []struct {
		which  string
		blocks [][]string
	}{{"before", before}, {"after", after}} {
		if len(file.blocks) != len(names) {
			f.fail("%s: %d blocks for %d artefacts", file.which, len(file.blocks), len(names))
		}
	}
	for name, reason := range reasons {
		if !slices.Contains(names, name) {
			f.fail("%s is named but is no artefact", name)
		} else if strings.TrimSpace(reason) == "" {
			f.fail("%s is named without a reason", name)
		}
	}
	if len(f.failed) > 0 {
		return
	}
	moved := 0
	for i, name := range names {
		reason, named := reasons[name]
		if slices.Equal(before[i], after[i]) {
			if named {
				f.fail("%s is named but did not move", name)
			}
			continue
		}
		moved++
		if !named {
			f.fail("%s moved, and the command line does not name it", name)
			reason = "NOT NAMED"
		}
		fmt.Fprintf(f.out, "### %s: %s\n", name, reason)
		for _, line := range diff(before[i], after[i]) {
			fmt.Fprintln(f.out, line)
		}
		fmt.Fprintln(f.out)
	}
	fmt.Fprintf(f.out, "%d of %d artefacts moved\n", moved, len(names))
}

// diff lists the lines of a not in b as "- line" and of b not in a as
// "+ line", in order, by a longest common subsequence.
func diff(a, b []string) []string {
	// common[i][j] is the longest common subsequence of a[i:] and b[j:].
	common := make([][]int, len(a)+1)
	for i := range common {
		common[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				common[i][j] = common[i+1][j+1] + 1
			} else {
				common[i][j] = max(common[i+1][j], common[i][j+1])
			}
		}
	}
	var out []string
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			i, j = i+1, j+1
		case j == len(b) || i < len(a) && common[i+1][j] >= common[i][j+1]:
			out, i = append(out, "- "+a[i]), i+1
		default:
			out, j = append(out, "+ "+b[j]), j+1
		}
	}
	return out
}

// artefactNames lists the scoreboard's artefacts in figs_small.txt order.
func artefactNames() []string {
	var names []string
	for _, a := range repro.Artifacts() {
		names = append(names, a.Name)
	}
	return names
}

const usage = "usage: goldenfence [-columns] before.txt after.txt | goldenfence -figs before.txt after.txt [NAME=reason ...]"

// run is main without the exit: the lines it prints go to out and the
// failures come back.
func run(args []string, out io.Writer) ([]string, error) {
	f := &fence{out: out}
	if len(args) > 0 && args[0] == "-figs" {
		if len(args) < 3 {
			return nil, fmt.Errorf(usage)
		}
		reasons := map[string]string{}
		for _, arg := range args[3:] {
			name, reason, ok := strings.Cut(arg, "=")
			if !ok {
				return nil, fmt.Errorf("%q is not NAME=reason; %s", arg, usage)
			}
			reasons[name] = reason
		}
		before, err := readBlocks(args[1])
		if err != nil {
			return nil, err
		}
		after, err := readBlocks(args[2])
		if err != nil {
			return nil, err
		}
		f.figs(before, after, artefactNames(), reasons)
		return f.failed, nil
	}
	columns := len(args) > 0 && args[0] == "-columns"
	if columns {
		args = args[1:]
	}
	if len(args) != 2 {
		return nil, fmt.Errorf(usage)
	}
	before, err := readTable(args[0])
	if err != nil {
		return nil, err
	}
	after, err := readTable(args[1])
	if err != nil {
		return nil, err
	}
	if columns {
		f.columns(before, after)
	} else {
		f.rerecord(before, after)
	}
	return f.failed, nil
}

func main() {
	failed, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(failed) > 0 {
		fmt.Printf("%d checks failed\n", len(failed))
		os.Exit(1)
	}
}
